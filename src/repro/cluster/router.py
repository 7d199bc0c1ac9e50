"""The cluster router: consistent-hash sharding over backend servers.

One router process fronts N ``repro-offtarget serve`` backends and
speaks the same JSON-lines protocol on both sides — to a client it
*is* an off-target server, to a backend it is just another client. The
paper's multi-platform argument (throughput comes from adding
execution units behind a common automata abstraction) applied one
level up: nodes are the units, the wire protocol is the abstraction.

Routing: a request's key is the digest of its ``(session,
guide-panel)`` identity — the sorted *canonical* cache-key names of
its guides under its budget, so two clients naming the same panel
differently land on the same node and share its compiled-guide cache.
Keys map to backends through a consistent-hash ring
(:class:`HashRing`: sha256 points, ``virtual_nodes`` per backend), so
a membership change moves only the keys that must move.

Fault tolerance is the headline, and it rests on one invariant the
single-server PRs already proved: **request-id idempotency**. The
router stamps every executing request with an id (``r-…``) when the
client did not, and on a backend transport failure re-issues the
*same* payload — same id — to the next live replica in the ring's
preference order. Whatever the dead backend did or did not execute,
each *surviving* backend's idempotency LRU sees each id at most once,
so ``execution_counts == 1`` holds per backend and the client observes
exactly one oracle-identical answer (or a typed error). Liveness comes
from :class:`~repro.cluster.membership.Membership` (health-probe
hysteresis; router-observed transport failures feed the same ladder),
admission control from a bounded in-flight gauge that sheds with the
typed ``overloaded`` error, and cache economics from warmup
forwarding: when a panel's keys move to a node that never compiled
them, the router ships the previous holder's ``CompiledGuide``
artefact over (``cache_export`` → ``cache_adopt``) instead of letting
the new node recompile.

The listener, framing, connection cap, error envelope and drain are
:class:`~repro.service.server.JsonLinesServer`'s — the same loop a
backend runs — so the router answers malformed lines, oversized lines
and connection floods exactly as a backend does.

Observability lives in the router's own :class:`~repro.obs.Metrics`
(injected, or a fresh collector per router): ``route.requests``,
``route.failovers``, ``route.reissues``, ``route.warmup_forwards``,
``route.shed``, ``route.members.live`` and friends.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.compiler import SearchBudget
from ..errors import ServiceError, ServiceTransportError
from ..grna.guide import Guide
from ..obs import Metrics
from ..service.cache import cache_key, canonical_name
from ..service.chaos import ChaosPlan
from ..service.client import ServiceClient
from ..service.server import JsonLinesServer, budget_from_wire, guide_from_wire
from .membership import BackendSpec, Membership

#: How many (panel-key → holder) facts the warmup tracker remembers.
COMPILED_ON_CAPACITY = 4096


def _hash64(text: str) -> int:
    """64-bit sha256 prefix — stable across processes and runs."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:16], 16)


def route_key(
    session_id: str, guides: tuple[Guide, ...], budget: SearchBudget
) -> str:
    """The routing key of a ``(session, guide-panel)`` request.

    Built from the *canonical* cache-key names of the panel (sorted),
    not the display names — the same content routes identically
    however the client labels it, which is what lets a panel stick to
    the node whose cache holds its artefacts.
    """
    names = sorted(canonical_name(cache_key(guide, budget)) for guide in guides)
    return hashlib.sha256("|".join([session_id, *names]).encode("ascii")).hexdigest()


class HashRing:
    """Consistent hashing with virtual nodes over a fixed name set.

    Each name contributes ``virtual_nodes`` sha256 points on a 64-bit
    ring; a key's *preference order* is the distinct-name walk
    clockwise from the key's own point. Removing a node from
    consideration (quarantine) promotes exactly the next name in each
    affected key's walk — every other assignment is untouched, which
    is the property that keeps failover cache damage local.
    """

    def __init__(self, names: tuple[str, ...], *, virtual_nodes: int = 64) -> None:
        if not names:
            raise ServiceError("hash ring needs at least one name")
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate ring names: {sorted(names)}")
        if virtual_nodes < 1:
            raise ServiceError(
                f"virtual_nodes must be >= 1, got {virtual_nodes!r}"
            )
        self._names = tuple(sorted(names))
        points = sorted(
            (_hash64(f"{name}#{index}"), name)
            for name in self._names
            for index in range(virtual_nodes)
        )
        self._points = points
        self._hashes = [point for point, _ in points]

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def preference(self, key: str) -> tuple[str, ...]:
        """Every name, in this key's clockwise-walk order."""
        start = bisect.bisect_left(self._hashes, _hash64(key)) % len(self._points)
        seen: set[str] = set()
        order: list[str] = []
        for offset in range(len(self._points)):
            name = self._points[(start + offset) % len(self._points)][1]
            if name not in seen:
                seen.add(name)
                order.append(name)
                if len(order) == len(self._names):
                    break
        return tuple(order)

    def owner(self, key: str) -> str:
        """The key's primary assignment (first of :meth:`preference`)."""
        return self.preference(key)[0]


@dataclass(frozen=True)
class RouterConfig:
    """Everything a :class:`ClusterRouter` needs to take traffic.

    Deliberately *constructible with invalid values*: validation is
    the SVC008–SVC011 rules of
    :func:`repro.check.check_router_config`, which the router runs at
    construction (raising on errors) and the ``route`` CLI surfaces as
    a check report — the same make-bad-states-checkable split the rest
    of the repo uses.
    """

    backends: tuple[BackendSpec, ...] = field(default_factory=tuple)
    replicas: int = 2
    virtual_nodes: int = 64
    probe_interval_seconds: float = 1.0
    probe_timeout_seconds: float = 0.5
    failure_threshold: int = 3
    recovery_threshold: int = 2
    drain_deadline_seconds: float = 10.0
    max_inflight: int = 64
    backend_timeout_seconds: float = 60.0


class ClusterRouter(JsonLinesServer):
    """A JSON-lines server that shards requests across backend servers.

    The loop, framing, connection cap (64, the server default), error
    envelope and drain are :class:`~repro.service.server.JsonLinesServer`'s;
    this class adds routing, admission control and membership.

    Parameters
    ----------
    config:
        The backend set and all routing/probing knobs; checked by
        :func:`repro.check.check_router_config` — errors raise
        :class:`~repro.errors.ServiceError` before anything binds.
    host, port:
        Where the router itself listens (``port=0`` = OS-assigned).
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPlan`; router →
        backend hops draw from ``router.send``, membership probes from
        ``probe.send``. The router's own response writes draw nothing.
    metrics:
        Collector for ``route.*`` counters/gauges; a router built
        without one gets its own.
    """

    METRIC_PREFIX = "route."
    EVENT_PREFIX = "route."

    def __init__(
        self,
        config: RouterConfig,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: ChaosPlan | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        from ..check import check_router_config

        report = check_router_config(config)
        errors = report.errors
        if errors:
            raise ServiceError(
                "invalid router config: "
                + "; ".join(f"{d.rule}: {d.message}" for d in errors)
            )
        super().__init__(
            metrics=metrics if metrics is not None else Metrics(),
            host=host,
            port=port,
            drain_deadline_seconds=config.drain_deadline_seconds,
        )
        self._config = config
        self._chaos = chaos
        self._membership = Membership(
            config.backends,
            probe_interval_seconds=config.probe_interval_seconds,
            probe_timeout_seconds=config.probe_timeout_seconds,
            failure_threshold=config.failure_threshold,
            recovery_threshold=config.recovery_threshold,
            chaos=chaos,
            metrics=self._metrics,
        )
        self._ring = HashRing(
            tuple(spec.name for spec in config.backends),
            virtual_nodes=config.virtual_nodes,
        )
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._compiled_on: dict[str, str] = {}
        self._id_token = f"{os.getpid():x}-{id(self):x}"
        self._id_counter: Iterator[int] = itertools.count(1)

    # -- introspection -------------------------------------------------------

    @property
    def config(self) -> RouterConfig:
        return self._config

    @property
    def membership(self) -> Membership:
        return self._membership

    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def inflight(self) -> int:
        """Requests currently being forwarded (the admission gauge)."""
        with self._state_lock:
            return self._inflight

    def compiled_holders(self) -> dict[str, str]:
        """Snapshot of the warmup tracker: panel key → holding backend."""
        with self._state_lock:
            return dict(self._compiled_on)

    def health(self) -> dict[str, Any]:
        """The router's own ``health`` op payload."""
        live = self._membership.live_names()
        return {
            "live": not self._stop.is_set(),
            "ready": (
                not self._draining.is_set()
                and not self._stop.is_set()
                and self._socket is not None
                and bool(live)
            ),
            "draining": self._draining.is_set(),
            "role": "router",
            "members": self._membership.describe(),
            "live_members": list(live),
            "inflight": self.inflight,
            "max_inflight": self._config.max_inflight,
        }

    def stats(self) -> dict[str, Any]:
        """The router's ``stats`` op / ``--stats-json`` payload."""
        counters = self._metrics.counters_with_prefix("route.")
        return {
            "role": "router",
            "backends": self._membership.describe(),
            "live_members": list(self._membership.live_names()),
            "requests": int(counters.get("route.requests", 0)),
            "forwarded": int(counters.get("route.forwarded", 0)),
            "failovers": int(counters.get("route.failovers", 0)),
            "reissues": int(counters.get("route.reissues", 0)),
            "warmup_forwards": int(counters.get("route.warmup_forwards", 0)),
            "shed": int(counters.get("route.shed", 0)),
            "no_backend": int(counters.get("route.no_backend", 0)),
            "obs": self._metrics.snapshot(),
        }

    # -- lifecycle hooks -----------------------------------------------------

    def start(self, *, probe: bool = True) -> tuple[str, int]:
        """Bind, listen, and (optionally) start the membership prober.

        ``probe=False`` leaves probing to explicit
        :meth:`Membership.probe_once` calls — the deterministic mode
        the cluster tests drive.
        """
        address = super().start()
        if probe:
            self._membership.start()
        return address

    def _on_drain(self) -> None:
        self._membership.stop()

    @contextmanager
    def _connection_scope(self) -> Iterator[dict[str, ServiceClient]]:
        """One connection's backend clients, closed when it ends."""
        clients: dict[str, ServiceClient] = {}
        try:
            yield clients
        finally:
            for client in clients.values():
                client.close()

    # -- the ops -------------------------------------------------------------

    def _respond(self, line: bytes, scope: Any = None) -> dict[str, Any]:
        self._metrics.incr("route.requests")
        return super()._respond(line, scope)

    def _respond_op(
        self, op: str, payload: dict[str, Any], clients: dict[str, ServiceClient]
    ) -> dict[str, Any]:
        if op == "register":
            return self._respond_register(payload, clients)
        if op in ("query", "design"):
            return self._respond_routed(op, payload, clients)
        if op in ("cache_export", "cache_adopt"):
            raise ServiceError(
                f"op {op!r} is node-local; address a backend directly"
            )
        raise ServiceError(f"unknown op {op!r}")

    def _respond_register(
        self, payload: dict[str, Any], clients: dict[str, ServiceClient]
    ) -> dict[str, Any]:
        """Broadcast a genome registration to every live backend.

        A session's panels hash to *different* backends, so the
        session must exist everywhere a key might land. Idempotent on
        each node (``created: false`` re-acks), so repeating the
        broadcast after membership changes is always safe. Backends
        that are quarantined now will be re-registered by the client's
        retry path when they rejoin — the router does not queue state.
        """
        live = self._membership.live_names()
        if not live:
            self._metrics.incr("route.no_backend")
            return {
                "ok": False,
                "error": "overloaded",
                "detail": "no live backends to register the session on",
            }
        results: dict[str, bool] = {}
        failures: list[str] = []
        for name in live:
            try:
                client = self._backend_client(clients, name)
                response = client.exchange(payload)
            except (ServiceTransportError, OSError) as error:
                self._membership.report_failure(name, str(error))
                self._drop_client(clients, name)
                failures.append(name)
                continue
            if not response.get("ok"):
                return dict(response)
            results[name] = bool(response.get("created"))
        if not results:
            self._metrics.incr("route.no_backend")
            return {
                "ok": False,
                "error": "overloaded",
                "detail": f"every live backend failed: {failures}",
            }
        self._metrics.incr("route.registers")
        return {
            "ok": True,
            "op": "registered",
            "session": str(payload.get("session", "default")),
            "created": any(results.values()),
            "backends": results,
        }

    def _respond_routed(
        self, op: str, payload: dict[str, Any], clients: dict[str, ServiceClient]
    ) -> dict[str, Any]:
        """Admission-control, key, and forward one executing op."""
        with self._state_lock:
            if self._inflight >= self._config.max_inflight:
                self._metrics.incr("route.shed")
                return {
                    "ok": False,
                    "error": "overloaded",
                    "detail": (
                        f"router at max in-flight "
                        f"({self._config.max_inflight}); retry with backoff"
                    ),
                }
            self._inflight += 1
            self._metrics.gauge("route.inflight", self._inflight)
        try:
            if op == "query":
                return self._forward_query(payload, clients)
            return self._forward_design(payload, clients)
        finally:
            with self._state_lock:
                self._inflight -= 1
                self._metrics.gauge("route.inflight", self._inflight)

    def _stamp_id(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Ensure the payload carries a request id (failover safety).

        The same id travels with every re-issue of this payload, so a
        backend that sees the request twice — directly and via another
        node's failover — executes it once. Without an id a re-issue
        could double-execute, so the router never forwards one.
        """
        if payload.get("id"):
            return payload
        stamped = dict(payload)
        stamped["id"] = f"r-{self._id_token}-{next(self._id_counter)}"
        return stamped

    def _candidates(self, key: str) -> tuple[str, ...]:
        """Live backends for *key*, ring-preference order, replica-capped."""
        live = set(self._membership.live_names())
        order = [name for name in self._ring.preference(key) if name in live]
        return tuple(order[: self._config.replicas])

    def _backend_client(
        self, clients: dict[str, ServiceClient], name: str
    ) -> ServiceClient:
        client = clients.get(name)
        if client is None:
            spec = self._membership.spec_of(name)
            client = ServiceClient(
                spec.host,
                spec.port,
                timeout_seconds=self._config.backend_timeout_seconds,
                chaos=self._chaos,
                chaos_site="router.send",
            )
            clients[name] = client
        return client

    def _drop_client(self, clients: dict[str, ServiceClient], name: str) -> None:
        client = clients.pop(name, None)
        if client is not None:
            client.close()

    def _dispatch(
        self,
        payload: dict[str, Any],
        key: str,
        clients: dict[str, ServiceClient],
    ) -> tuple[dict[str, Any], str]:
        """Forward *payload* to the first candidate that answers.

        Returns ``(response, backend_name)``; on a transport failure
        the candidate is reported to membership (feeding the same
        hysteresis ladder as probes), its connection is dropped, and
        the *identical* payload — same request id — is re-issued to
        the next candidate. An exhausted candidate list answers the
        typed ``overloaded`` error: the client's retry (same id) will
        land after membership catches up, and idempotency makes that
        retry safe even if a presumed-dead backend actually executed.
        """
        payload = self._stamp_id(payload)
        candidates = self._candidates(key)
        if not candidates:
            self._metrics.incr("route.no_backend")
            return (
                {
                    "ok": False,
                    "error": "overloaded",
                    "detail": "no live backends for this key; retry with backoff",
                },
                "",
            )
        last_error = ""
        for attempt, name in enumerate(candidates):
            if attempt:
                self._metrics.incr("route.reissues")
            try:
                client = self._backend_client(clients, name)
                response = client.exchange(payload)
            except (ServiceTransportError, OSError) as error:
                self._metrics.incr("route.failovers")
                self._membership.report_failure(name, str(error))
                self._drop_client(clients, name)
                last_error = str(error)
                continue
            self._metrics.incr("route.forwarded")
            return dict(response), name
        return (
            {
                "ok": False,
                "error": "overloaded",
                "detail": (
                    f"all {len(candidates)} candidate backend(s) failed "
                    f"(last: {last_error}); retry with backoff"
                ),
            },
            "",
        )

    def _forward_query(
        self, payload: dict[str, Any], clients: dict[str, ServiceClient]
    ) -> dict[str, Any]:
        raw_guides = payload.get("guides")
        if not isinstance(raw_guides, list) or not raw_guides:
            raise ServiceError("query needs a non-empty 'guides' list")
        try:
            default_pam = payload.get("pam", "NGG")
            guides = tuple(
                guide_from_wire(raw, default_pam=default_pam)
                for raw in raw_guides
            )
            budget = budget_from_wire(payload.get("budget", {}))
            session_id = str(payload.get("session", "default"))
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed query: {error!r}") from error
        key = route_key(session_id, guides, budget)
        key_names = [canonical_name(cache_key(g, budget)) for g in guides]
        target = next(iter(self._candidates(key)), "")
        if target:
            self._warm_target(target, guides, budget, key_names, clients)
        response, served_by = self._dispatch(payload, key, clients)
        if response.get("ok") and served_by:
            with self._state_lock:
                for key_name in key_names:
                    self._remember_holder(key_name, served_by)
        return response

    def _forward_design(
        self, payload: dict[str, Any], clients: dict[str, ServiceClient]
    ) -> dict[str, Any]:
        raw_region = payload.get("region")
        if not isinstance(raw_region, str) or not raw_region:
            raise ServiceError(
                "design needs a non-empty 'region' sequence string"
            )
        # Refuse a budget a backend would refuse, with the same answer,
        # before it goes into the key.
        raw_budget = payload.get("budget", {})
        try:
            budget_from_wire(raw_budget)
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed design request: {error!r}") from error
        session_id = str(payload.get("session", "default"))
        identity = json.dumps(
            [
                session_id,
                raw_region,
                str(payload.get("pam", "NGG")),
                str(payload.get("guide_length", 20)),
                raw_budget,
            ],
            sort_keys=True,
        )
        key = hashlib.sha256(identity.encode("utf-8")).hexdigest()
        response, _ = self._dispatch(payload, key, clients)
        return response

    def _remember_holder(self, key_name: str, backend: str) -> None:
        """Record (bounded) which backend holds a compiled panel key."""
        self._compiled_on[key_name] = backend
        while len(self._compiled_on) > COMPILED_ON_CAPACITY:
            self._compiled_on.pop(next(iter(self._compiled_on)))

    def _warm_target(
        self,
        target: str,
        guides: tuple[Guide, ...],
        budget: SearchBudget,
        key_names: list[str],
        clients: dict[str, ServiceClient],
    ) -> None:
        """Ship peer-compiled artefacts to *target* before it executes.

        Best effort on every edge: a holder that cannot export (dead,
        quarantined, evicted the entry) simply means the target
        recompiles — correctness never depends on warmup, only the
        recompilation economics do. The export is attempted even from
        a quarantined holder: quarantine gates *routing*, and a node
        whose probes are blackholed may still serve a direct artefact
        fetch perfectly well.
        """
        with self._state_lock:
            holders = {
                key_name: self._compiled_on.get(key_name)
                for key_name in key_names
            }
        for guide, key_name in zip(guides, key_names):
            holder = holders.get(key_name)
            if holder is None or holder == target:
                continue
            try:
                artefact = self._backend_client(clients, holder).cache_export(
                    guide, budget
                )
                if artefact is None:
                    continue
                self._backend_client(clients, target).cache_adopt(artefact)
            except (ServiceError, OSError):
                self._metrics.incr("route.warmup_failures")
                self._drop_client(clients, holder)
                continue
            self._metrics.incr("route.warmup_forwards")
            with self._state_lock:
                self._remember_holder(key_name, target)
