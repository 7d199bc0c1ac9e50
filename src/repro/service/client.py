"""Retrying JSON-lines client for :class:`OffTargetServer`.

Speaks the one-object-per-line protocol of
:mod:`repro.service.server` over a local TCP socket and maps wire
error kinds back onto the typed exception hierarchy, so callers handle
a remote overload exactly like an in-process one::

    from repro.service import RetryPolicy, ServiceClient

    with ServiceClient(port=port, retry=RetryPolicy()) as client:
        result = client.query(guides, SearchBudget(mismatches=3))
        print(client.stats()["cache"]["hit_rate"])

Failure handling is split into two classes:

* **transport failures** (:class:`~repro.errors.ServiceTransportError`
  — refused/reset/closed connections, timeouts, truncated response
  lines) leave the request's fate unknown and are the *retryable*
  class: under a :class:`RetryPolicy` the client reconnects and
  resends after capped exponential backoff with seeded jitter.
  Retried queries carry a client-generated request id, which the
  server deduplicates — a retry can therefore never double-execute or
  double-count a search.
* **typed service answers** (``bad_request`` / ``deadline`` /
  ``capacity`` / ``internal``) are final and re-raised as their typed
  exceptions. ``overloaded`` is the one configurable middle ground:
  the request was shed *before* execution, so
  ``RetryPolicy.retry_overloaded`` (default True) backs off and tries
  again.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Union

import numpy as np

from ..core.compiler import SearchBudget
from ..errors import (
    CapacityError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTransportError,
)
from ..grna.guide import Guide
from ..obs import Metrics
from .chaos import ChaosPlan
from .scheduler import ServiceResult
from .server import guide_to_wire, hit_from_wire

_ERROR_TYPES: dict[str, type[ServiceError]] = {
    "overloaded": ServiceOverloadedError,
    "deadline": DeadlineExceededError,
}


def _raise_wire_error(kind: str, detail: str) -> None:
    if kind == "capacity":
        raise CapacityError(detail)
    raise _ERROR_TYPES.get(kind, ServiceError)(detail)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with seeded jitter.

    Retry *attempt* ``n`` (1-based) sleeps a uniformly jittered
    duration in ``[d * (1 - jitter_fraction), d]`` where
    ``d = min(max_delay_seconds, base_delay_seconds * multiplier**(n-1))``.
    Jitter draws come from a generator seeded with ``seed`` (the
    repository's seeded-randomness rule, L002), so a retry schedule is
    reproducible.

    Only safe failure classes are retried: transport failures always
    (the server's request-id deduplication makes a resend idempotent),
    ``overloaded`` sheds only when ``retry_overloaded`` is set, and
    every other typed answer — ``deadline``, ``capacity``,
    ``bad_request``, ``internal`` — never.

    This is the system's one backoff schedule: a failed shard is
    resubmitted at once and router failover walks the replicas without
    a delay. A query/design ``timeout_seconds`` is the request's only
    deadline. It bounds the server's dispatch and the *whole* retry
    schedule: measured from the first attempt, the total time spent
    (attempts plus backoff sleeps) never exceeds it. Each backoff is
    clamped to the remaining time and a spent timeout raises
    :class:`~repro.errors.DeadlineExceededError` instead of sleeping
    past it — without the clamp, ``max_attempts`` capped exponential
    backoff could keep a caller waiting long after the deadline it
    asked the *server* to respect.
    """

    max_attempts: int = 4
    base_delay_seconds: float = 0.02
    max_delay_seconds: float = 1.0
    multiplier: float = 2.0
    jitter_fraction: float = 0.5
    seed: int = 0
    retry_overloaded: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ServiceError("retry delays must be >= 0")
        if self.multiplier < 1.0:
            raise ServiceError(f"multiplier must be >= 1, got {self.multiplier!r}")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ServiceError(
                f"jitter_fraction must be within [0, 1], got {self.jitter_fraction!r}"
            )

    def is_retryable(self, error: Exception) -> bool:
        """Whether *error* belongs to a safe-to-retry failure class."""
        if isinstance(error, ServiceTransportError):
            return True
        if isinstance(error, ServiceOverloadedError):
            return self.retry_overloaded
        return False

    def delay_seconds(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry *attempt* (1 = first retry)."""
        ceiling = min(
            self.max_delay_seconds,
            self.base_delay_seconds * self.multiplier ** max(0, attempt - 1),
        )
        if not self.jitter_fraction:
            return ceiling
        spread = ceiling * self.jitter_fraction
        return ceiling - spread + spread * float(rng.random())


class ServiceClient:
    """One connection to a running off-target service.

    Parameters
    ----------
    retry:
        Optional :class:`RetryPolicy`. When set, transport failures
        (and, by default, overload sheds) are retried with backoff;
        queries without an explicit ``request_id`` are stamped with a
        client-unique id so the server can deduplicate the retries.
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPlan` consulted at
        the send site — sabotages send attempts for the differential
        chaos suite.
    chaos_site:
        Which plan site the send consults; ``client.send`` by
        default. The router tier passes ``router.send`` so its
        backend hops draw from their own seeded stream.
    metrics:
        Collector for ``service.client.*`` counters (attempts,
        retries, transport errors, disconnects); the client keeps its
        own when none is supplied.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_seconds: float = 60.0,
        retry: RetryPolicy | None = None,
        chaos: ChaosPlan | None = None,
        chaos_site: str = "client.send",
        metrics: Metrics | None = None,
    ) -> None:
        if port < 1:
            raise ServiceError(f"client needs the server's port, got {port!r}")
        self._address = (host, port)
        self._timeout = timeout_seconds
        self._retry = retry
        self._chaos = chaos
        self._chaos_site = chaos_site
        self._metrics = metrics if metrics is not None else Metrics()
        self._rng = np.random.default_rng(retry.seed if retry is not None else 0)
        self._socket: socket.socket | None = None
        self._buffer = bytearray()
        self._id_token = f"{os.getpid():x}-{id(self):x}"
        self._id_counter: Iterator[int] = itertools.count(1)

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    # -- lifecycle ---------------------------------------------------------

    def connect(self) -> "ServiceClient":
        """Open the connection (idempotent)."""
        if self._socket is None:
            try:
                self._socket = socket.create_connection(
                    self._address, timeout=self._timeout
                )
            except OSError as error:
                raise ServiceTransportError(
                    f"cannot connect to service at "
                    f"{self._address[0]}:{self._address[1]}: {error}"
                ) from error
            # Short socket timeout so reads poll the roundtrip deadline.
            self._socket.settimeout(min(0.5, self._timeout))
            self._buffer.clear()
        return self

    def close(self) -> None:
        if self._socket is not None:
            try:
                self._socket.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._socket = None
        self._buffer.clear()

    def _teardown(self) -> None:
        """Drop a connection whose stream state is no longer trustworthy."""
        self._metrics.incr("service.client.disconnects")
        self.close()

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- protocol ----------------------------------------------------------

    def roundtrip(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request object, return the (``ok``) response object.

        Wire failures raise the matching typed exception
        (:class:`ServiceOverloadedError`, :class:`DeadlineExceededError`,
        :class:`~repro.errors.CapacityError`,
        :class:`~repro.errors.ServiceTransportError`,
        :class:`ServiceError`). Under a :class:`RetryPolicy`, safe
        failure classes are retried — an executing op (``query`` /
        ``design``) only when it carries an ``id`` (otherwise a resend
        could double-execute).
        """
        policy = self._retry
        safe_to_resend = payload.get("op", "query") not in (
            "query",
            "design",
        ) or bool(payload.get("id"))
        deadline = self._retry_horizon(payload)
        attempt = 0
        while True:
            attempt += 1
            self._metrics.incr("service.client.attempts")
            try:
                return self._attempt(payload)
            except ServiceError as error:
                if isinstance(error, ServiceTransportError):
                    self._metrics.incr("service.client.transport_errors")
                    self._teardown()
                if (
                    policy is None
                    or not safe_to_resend
                    or attempt >= policy.max_attempts
                    or not policy.is_retryable(error)
                ):
                    raise
                delay = policy.delay_seconds(attempt, self._rng)
                if deadline is not None:
                    # The request's timeout bounds the whole schedule:
                    # never sleep past it, and give up typed once it
                    # is spent instead of burning attempts.
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._metrics.incr("service.client.deadline_exhausted")
                        raise DeadlineExceededError(
                            f"retry budget exhausted after {attempt} "
                            f"attempt(s); last failure: {error}"
                        ) from error
                    delay = min(delay, remaining)
                self._metrics.incr("service.client.retries")
                if delay > 0:
                    time.sleep(delay)

    def _retry_horizon(self, payload: dict[str, Any]) -> float | None:
        """Absolute monotonic deadline for this roundtrip's retries.

        The request's own ``timeout`` field: a caller that bounded the
        server-side dispatch has bounded its own patience too.
        """
        raw_timeout = payload.get("timeout")
        if isinstance(raw_timeout, (int, float)):
            return time.monotonic() + float(raw_timeout)
        return None

    def exchange(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response exchange; typed refusals come back as data.

        Unlike :meth:`roundtrip`, an ``ok: false`` response is
        *returned*, not raised — the router tier needs the backend's
        verdict verbatim so it can forward it to its own client.
        Transport failures (the request's fate is unknown, which is a
        different thing from a typed refusal) still raise
        :class:`~repro.errors.ServiceTransportError`. No retries.
        """
        self.connect()
        data = json.dumps(payload).encode("ascii") + b"\n"
        self._send(data)
        line = self._read_line()
        try:
            response = json.loads(line)
        except ValueError as error:
            raise ServiceTransportError(
                f"unparseable response line: {error}"
            ) from error
        if not isinstance(response, dict):
            raise ServiceTransportError(f"malformed response: {response!r}")
        return response

    def _attempt(self, payload: dict[str, Any]) -> dict[str, Any]:
        """One request/response exchange, no retries; refusals raise."""
        response = self.exchange(payload)
        if not response.get("ok"):
            _raise_wire_error(
                str(response.get("error", "internal")),
                str(response.get("detail", "service error")),
            )
        return response

    def _send(self, data: bytes) -> None:
        """Write one request line — the client-side chaos site.

        Sabotage actions corrupt the attempt (drop, truncate, garbage,
        oversize, vanish-after-send) and raise
        :class:`ServiceTransportError` so the retry loop reconnects
        and resends; ``slow_send`` dribbles the line out slowly but
        completes it.
        """
        connection = self._socket
        assert connection is not None
        chaos = self._chaos
        action = chaos.draw(self._chaos_site) if chaos is not None else None
        try:
            if action is None:
                connection.sendall(data)
                return
            assert chaos is not None
            if action == "slow_send":
                step = chaos.slow_chunk_bytes
                for offset in range(0, len(data), step):
                    connection.sendall(data[offset : offset + step])
                    time.sleep(chaos.slow_pause_seconds)
                return
            self._metrics.incr("service.client.chaos_injected")
            if action == "truncate_send":
                connection.sendall(data[: max(1, len(data) // 2)])
            elif action == "garbage_line":
                connection.sendall(chaos.garbage_line())
            elif action == "oversize_line":
                connection.sendall(chaos.oversize_line())
            elif action == "disconnect_after_send":
                connection.sendall(data)
        except OSError as error:
            self._teardown()
            raise ServiceTransportError(
                f"service connection failed: {error}"
            ) from error
        self._teardown()
        raise ServiceTransportError(f"chaos: {action.replace('_', ' ')}")

    def _read_line(self) -> bytes:
        """Read one newline-terminated response line (own buffering).

        A buffered ``makefile().readline`` can discard partial data on
        a socket timeout; owning the buffer keeps slow (chaotic)
        server writes reassembling correctly and turns every
        connection-level failure into a typed
        :class:`ServiceTransportError`.
        """
        connection = self._socket
        assert connection is not None
        deadline = time.monotonic() + self._timeout
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line
            if time.monotonic() > deadline:
                raise ServiceTransportError(
                    f"timed out after {self._timeout:g}s waiting for a response"
                )
            try:
                chunk = connection.recv(1 << 16)
            except socket.timeout:
                continue
            except OSError as error:
                raise ServiceTransportError(
                    f"service connection failed: {error}"
                ) from error
            if not chunk:
                raise ServiceTransportError(
                    "service closed the connection"
                    + (" mid-line" if self._buffer else "")
                )
            self._buffer.extend(chunk)

    # -- ops ---------------------------------------------------------------

    def ping(self) -> bool:
        """Liveness check."""
        return self.roundtrip({"op": "ping"}).get("op") == "pong"

    def query(
        self,
        guides: Union[Guide, Iterable[Guide]],
        budget: SearchBudget,
        *,
        session_id: str = "default",
        request_id: str = "",
        timeout_seconds: float | None = None,
    ) -> ServiceResult:
        """Run one query through the service; hits come back typed.

        Under a :class:`RetryPolicy`, a query without an explicit
        ``request_id`` is stamped with a client-unique one so the
        server can recognise (and deduplicate) retried sends.
        """
        if isinstance(guides, Guide):
            guides = (guides,)
        if not request_id and self._retry is not None:
            request_id = f"q-{self._id_token}-{next(self._id_counter)}"
        payload: dict[str, Any] = {
            "op": "query",
            "guides": [guide_to_wire(guide) for guide in guides],
            "budget": {
                "mismatches": budget.mismatches,
                "rna_bulges": budget.rna_bulges,
                "dna_bulges": budget.dna_bulges,
            },
            "session": session_id,
        }
        if request_id:
            payload["id"] = request_id
        if timeout_seconds is not None:
            payload["timeout"] = timeout_seconds
        response = self.roundtrip(payload)
        return ServiceResult(
            request_id=str(response.get("id", request_id)),
            hits=tuple(hit_from_wire(raw) for raw in response.get("hits", [])),
            stats=dict(response.get("stats", {})),
        )

    def design(
        self,
        region: str,
        *,
        region_name: str = "region",
        pam: str = "NGG",
        guide_length: int = 20,
        budget: SearchBudget | None = None,
        weights: dict[str, Any] | None = None,
        session_id: str = "default",
        request_id: str = "",
        timeout_seconds: float | None = None,
        include_hits: bool = True,
    ) -> dict[str, Any]:
        """Run one design request; returns the ranked report document.

        *region* is the raw target sequence text. Like :meth:`query`,
        a request without an explicit ``request_id`` is stamped with a
        client-unique one under a :class:`RetryPolicy`, so retried
        sends deduplicate server-side instead of re-running the
        pipeline.
        """
        if not request_id and self._retry is not None:
            request_id = f"d-{self._id_token}-{next(self._id_counter)}"
        resolved = budget if budget is not None else SearchBudget()
        payload: dict[str, Any] = {
            "op": "design",
            "region": region,
            "region_name": region_name,
            "pam": pam,
            "guide_length": guide_length,
            "budget": {
                "mismatches": resolved.mismatches,
                "rna_bulges": resolved.rna_bulges,
                "dna_bulges": resolved.dna_bulges,
            },
            "session": session_id,
            "include_hits": include_hits,
        }
        if weights is not None:
            payload["weights"] = weights
        if request_id:
            payload["id"] = request_id
        if timeout_seconds is not None:
            payload["timeout"] = timeout_seconds
        response = self.roundtrip(payload)
        return dict(response.get("report", {}))

    def register_genome(
        self,
        session_id: str,
        sequences: Iterable[tuple[str, str]],
    ) -> bool:
        """Register (or re-confirm) a genome session over the wire.

        *sequences* are ``(name, text)`` pairs. The op is idempotent:
        a session that already exists is left untouched and answered
        with ``created: false``, so re-registering after a backend
        restart (or a retried send) is always safe. Returns whether
        this call created the session.
        """
        payload = {
            "op": "register",
            "session": session_id,
            "sequences": [
                {"name": name, "text": text} for name, text in sequences
            ],
        }
        return bool(self.roundtrip(payload).get("created"))

    def cache_export(self, guide: Guide, budget: SearchBudget) -> str | None:
        """This backend's pickled artefact for (*guide*, *budget*), if cached.

        Returns the base64 payload the ``cache_adopt`` op accepts, or
        ``None`` on a cache miss — the probe never compiles and moves
        no cache counters (the router's warmup-forwarding source).
        """
        response = self.roundtrip(
            {
                "op": "cache_export",
                "guide": guide_to_wire(guide),
                "budget": {
                    "mismatches": budget.mismatches,
                    "rna_bulges": budget.rna_bulges,
                    "dna_bulges": budget.dna_bulges,
                },
            }
        )
        artefact = response.get("artefact")
        if not response.get("found") or not isinstance(artefact, str):
            return None
        return artefact

    def cache_adopt(self, artefact: str) -> str:
        """Hand a peer-exported artefact to this backend's cache.

        Returns the canonical cache-entry name the backend adopted it
        under; a corrupted or mislabeled artefact is refused with
        ``bad_request``.
        """
        response = self.roundtrip({"op": "cache_adopt", "artefact": artefact})
        return str(response.get("key", ""))

    def stats(self) -> dict[str, Any]:
        """The service's metrics payload (see ``OffTargetService.stats``)."""
        return dict(self.roundtrip({"op": "stats"})["stats"])

    def health(self) -> dict[str, Any]:
        """The server's readiness/liveness payload (the ``health`` op)."""
        return dict(self.roundtrip({"op": "health"})["health"])

    def drain(self) -> bool:
        """Ask the server to drain gracefully (it acknowledges first)."""
        return self.roundtrip({"op": "drain"}).get("op") == "draining"

    def shutdown(self) -> None:
        """Ask the server to stop (it acknowledges first)."""
        self.roundtrip({"op": "shutdown"})
