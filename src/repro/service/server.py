"""JSON-lines socket front end for :class:`OffTargetService`.

A deliberately small wire protocol: one JSON object per line in each
direction over a local TCP socket. Every response carries ``"ok"``;
failures carry a stable ``"error"`` kind the client maps back onto the
typed exception hierarchy, so overload and deadline behaviour is
end-to-end testable through the socket:

=========== ============================================================
op           behaviour
=========== ============================================================
``ping``     liveness check → ``{"ok": true, "op": "pong"}``
``query``    guides + budget + session → demultiplexed hits and stats
``design``   region + PAM + guide length (+ budget, weights) → ranked
             design report; vetting runs as one coalesced query
             through this server's own service

``stats``    service metrics (coalesced batches, cache hit rate, sheds)
``health``   readiness/liveness: queue depth, in-flight requests,
             sessions, cache hit/miss counters, uptime, connection
             count, drain state — rich enough for load-aware
             membership decisions (the router tier's probe)
``register`` session + ``[{name, text}]`` sequences → idempotently
             ensure the genome session exists (``created`` reports
             whether this call made it)
``cache_export``  guide + budget → the cached CompiledGuide artefact
             as base64 pickle (``found: false`` on a miss; never
             compiles, moves no cache counters)
``cache_adopt``   base64 artefact → insert a peer-compiled artefact
             into this node's cache (cache-warmup forwarding; the
             artefact must carry its canonical content-derived name)
``drain``    acknowledge, stop accepting, finish admitted requests
             under the drain deadline, then exit
``shutdown`` acknowledge, then stop the server loop
=========== ============================================================

``cache_adopt`` unpickles its payload and therefore trusts its peers;
the serving stack binds to loopback by default and the cluster tier is
an intra-trust-boundary deployment (the router and its backends are
one operator's processes), which is the deployment this op assumes.

Error kinds: ``overloaded`` (queue at capacity or the connection cap
was hit — the request was shed at admission), ``deadline`` (admitted
but expired before dispatch), ``capacity`` (a guide cannot fit the
configured device), ``bad_request`` (malformed lines/guides/budgets/
ops — anything the *client* got wrong), ``internal`` (a server-side
bug; stdlib exceptions escaping our own demux code land here, never
under ``bad_request``).

The listener, framing, connection cap, error envelope and drain live
in :class:`JsonLinesServer`, which both :class:`OffTargetServer` and
the cluster tier's router extend, so the two answer the wire the same
way.

Robustness invariants (pinned by ``tests/test_chaos.py``):

* **Framing is typed.** A line exceeding ``max_line_bytes`` is
  answered with ``bad_request`` ("line too long") and the connection
  is closed — never parsed as a truncated request plus garbage. A
  peer that disconnects mid-line is dropped silently (counted).
* **Retries are idempotent.** Responses to requests that carry an
  ``id`` are remembered (bounded LRU); a retried id returns the
  recorded response without re-executing, and concurrent duplicates
  share one in-flight execution. This is what makes the client's
  retry-on-transport-failure policy safe.
* **Drain is graceful.** :meth:`OffTargetServer.request_drain` (the
  ``drain`` op, or ``SIGTERM``/``SIGINT`` under ``repro-offtarget
  serve``) stops accepting, lets in-flight handlers finish admitted
  requests under a deadline, closes the service (which resolves every
  admitted future), and only then stops. :meth:`OffTargetServer.stop`
  runs the same sequence, so no code path abandons an executing
  request.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import threading
import time
from abc import ABC, abstractmethod
from collections import OrderedDict
from concurrent.futures import Future
from contextlib import AbstractContextManager, nullcontext
from typing import Any, Callable

from ..core.compiler import CompiledGuide, SearchBudget
from ..genome.sequence import Sequence
from ..errors import (
    CapacityError,
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit
from ..grna.pam import Pam, get_pam
from ..obs import Metrics
from .api import OffTargetService, checked_timeout
from .cache import canonical_name
from .chaos import ChaosPlan
from .scheduler import ServiceResult

#: Wire-protocol limit on one request line (a guide panel is tiny; a
#: multi-megabyte line is a confused or hostile client).
MAX_LINE_BYTES = 4 << 20


def hit_to_wire(hit: OffTargetHit) -> dict[str, Any]:
    """One hit as a JSON-friendly dict (the protocol's hit schema)."""
    return {
        "guide": hit.guide_name,
        "sequence": hit.sequence_name,
        "strand": hit.strand,
        "start": hit.start,
        "end": hit.end,
        "mismatches": hit.mismatches,
        "rna_bulges": hit.rna_bulges,
        "dna_bulges": hit.dna_bulges,
        "site": hit.site,
    }


def hit_from_wire(payload: dict[str, Any]) -> OffTargetHit:
    """Inverse of :func:`hit_to_wire` (used by the client)."""
    return OffTargetHit(
        guide_name=payload["guide"],
        sequence_name=payload["sequence"],
        strand=payload["strand"],
        start=payload["start"],
        end=payload["end"],
        mismatches=payload["mismatches"],
        rna_bulges=payload.get("rna_bulges", 0),
        dna_bulges=payload.get("dna_bulges", 0),
        site=payload.get("site", ""),
    )


def guide_to_wire(guide: Guide) -> dict[str, Any]:
    """One guide as its wire dict, PAM side included."""
    wire: dict[str, Any] = {
        "name": guide.name,
        "protospacer": guide.protospacer,
        "pam": {
            "name": guide.pam.name,
            "pattern": guide.pam.pattern,
            "side": guide.pam.side,
            "nuclease": guide.pam.nuclease,
        },
    }
    if guide.min_length is not None:
        wire["min_length"] = guide.min_length
    return wire


def guide_from_wire(payload: dict[str, Any], *, default_pam: str = "NGG") -> Guide:
    """Build a :class:`Guide` from its wire dict.

    ``pam`` may be a catalog name / IUPAC string or the full
    ``{name, pattern, side}`` object :func:`guide_to_wire` emits.
    """
    raw_pam = payload.get("pam", default_pam)
    pam: Pam
    if isinstance(raw_pam, dict):
        pam = Pam(
            name=raw_pam.get("name", raw_pam["pattern"]),
            pattern=raw_pam["pattern"],
            side=raw_pam.get("side", "3prime"),
            nuclease=raw_pam.get("nuclease", "custom"),
        )
    else:
        pam = get_pam(raw_pam)
    return Guide(
        payload["name"],
        payload["protospacer"],
        pam,
        min_length=payload.get("min_length"),
    )


def _wire_integer(value: Any, what: str) -> int:
    """*value* when it is a JSON integer, else a typed ``bad_request``.

    JSON ``true`` decodes to a Python ``bool``, which is an ``int``;
    it is refused like a float or a string rather than read as 1.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{what} must be an integer, got {value!r}")
    return value


def budget_from_wire(payload: Any) -> SearchBudget:
    """Build a :class:`SearchBudget` from its wire dict."""
    if not isinstance(payload, dict):
        raise ServiceError(f"budget must be a JSON object, got {payload!r}")
    return SearchBudget(
        mismatches=_wire_integer(payload.get("mismatches", 3), "budget mismatches"),
        rna_bulges=_wire_integer(payload.get("rna_bulges", 0), "budget rna_bulges"),
        dna_bulges=_wire_integer(payload.get("dna_bulges", 0), "budget dna_bulges"),
    )


def _error_kind(error: Exception) -> str:
    """Classify an exception into its wire error kind.

    Only the typed library hierarchy maps to client-attributable
    kinds. Bare stdlib exceptions (``KeyError``/``TypeError``/
    ``ValueError``) escaping our own code are genuine server-side bugs
    and report ``internal`` — the demux/parse layers wrap the ones a
    malformed request can legitimately provoke into
    :class:`ServiceError` before they get here.
    """
    if isinstance(error, ServiceOverloadedError):
        return "overloaded"
    if isinstance(error, DeadlineExceededError):
        return "deadline"
    if isinstance(error, CapacityError):
        return "capacity"
    if isinstance(error, ReproError):
        return "bad_request"
    return "internal"


class _LineTooLong(Exception):
    """A request line exceeded the server's framing limit."""

    def __init__(self, length: int) -> None:
        super().__init__(length)
        self.length = length


class JsonLinesServer(ABC):
    """The JSON-lines server loop every serving front end runs.

    :class:`OffTargetServer` and the cluster tier's
    :class:`~repro.cluster.router.ClusterRouter` share this one loop: a
    listener polled by an accept thread; one handler thread per
    connection up to ``max_connections`` (a connection beyond the cap
    gets one ``overloaded`` error line and is closed); owned-buffer
    framing under ``max_line_bytes``; and one response envelope that
    parses a line, answers the shared ``ping`` / ``stats`` / ``health``
    / ``drain`` / ``shutdown`` ops, hands any other op to
    :meth:`_respond_op`, and maps an exception to its wire kind with
    :func:`_error_kind`.

    A subclass supplies its own ops (:meth:`_respond_op`), its
    :meth:`health` and :meth:`stats` payloads, what a drain releases
    once the handlers are done (:meth:`_on_drain`) and, if it needs
    one, per-connection state (:meth:`_connection_scope`). Counters are
    named ``<METRIC_PREFIX>connections.*`` and ``<METRIC_PREFIX>drain.*``
    for the lifecycle and ``<EVENT_PREFIX>*`` for framing and envelope
    events.

    Parameters
    ----------
    metrics:
        Collector for this server's counters and gauges.
    host, port:
        Where to listen. ``port=0`` lets the OS pick a free port; the
        bound address is :attr:`address` after :meth:`start`.
    max_connections:
        Concurrent-connection cap; a connection beyond it is answered
        with one ``overloaded`` error line and closed.
    max_line_bytes:
        Framing limit for one request line; a longer line is rejected
        with a typed ``bad_request`` and the connection is closed.
    drain_deadline_seconds:
        How long :meth:`drain` waits for in-flight connection handlers
        before :meth:`_on_drain` runs.
    write_chaos:
        Optional :class:`~repro.service.chaos.ChaosPlan` consulted at
        the ``server.write`` site — drops, truncates, or slows
        response writes for the differential chaos suite.
    """

    METRIC_PREFIX = "service."
    EVENT_PREFIX = "service.server."

    def __init__(
        self,
        *,
        metrics: Metrics,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        max_line_bytes: int = MAX_LINE_BYTES,
        drain_deadline_seconds: float = 10.0,
        write_chaos: ChaosPlan | None = None,
    ) -> None:
        if not isinstance(max_connections, int) or max_connections < 1:
            raise ServiceError(
                f"max_connections must be a positive integer, got {max_connections!r}"
            )
        if not isinstance(max_line_bytes, int) or max_line_bytes < 64:
            raise ServiceError(
                f"max_line_bytes must be an integer >= 64, got {max_line_bytes!r}"
            )
        if drain_deadline_seconds < 0:
            raise ServiceError(
                f"drain_deadline_seconds must be >= 0, got {drain_deadline_seconds!r}"
            )
        self._metrics = metrics
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._max_line_bytes = max_line_bytes
        self._drain_deadline = drain_deadline_seconds
        self._write_chaos = write_chaos
        self._poll_seconds = 0.2
        self._socket: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._drain_lock = threading.Lock()
        self._drain_thread: threading.Thread | None = None
        self._finished = False
        self._drained_clean = True
        self._handler_lock = threading.Lock()
        self._handlers: dict[threading.Thread, socket.socket] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start`."""
        if self._socket is None:
            raise ServiceError("server is not started")
        host, port = self._socket.getsockname()[:2]
        return str(host), int(port)

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    @property
    def max_connections(self) -> int:
        return self._max_connections

    @property
    def max_line_bytes(self) -> int:
        return self._max_line_bytes

    @property
    def accepting(self) -> bool:
        """True while the listener is open (new connections accepted)."""
        return self._socket is not None

    @property
    def draining(self) -> bool:
        """True once a graceful drain has begun."""
        return self._draining.is_set()

    @property
    def stopped(self) -> bool:
        """True once the serve loop has been told to exit."""
        return self._stop.is_set()

    @property
    def active_connections(self) -> int:
        """Currently-served connections (live handler threads)."""
        with self._handler_lock:
            return sum(1 for thread in self._handlers if thread.is_alive())

    # -- what a subclass supplies --------------------------------------------

    @abstractmethod
    def health(self) -> dict[str, Any]:
        """Readiness/liveness snapshot (the ``health`` op's payload)."""

    @abstractmethod
    def stats(self) -> dict[str, Any]:
        """Counters and gauges (the ``stats`` op's payload)."""

    @abstractmethod
    def _respond_op(
        self, op: str, payload: dict[str, Any], scope: Any
    ) -> dict[str, Any]:
        """Answer an op the shared envelope does not; raise on failure.

        *scope* is the value :meth:`_connection_scope` gave the
        connection the request arrived on (None outside a connection).
        """

    @abstractmethod
    def _on_drain(self) -> None:
        """Release admitted work once the handlers finished or timed out."""

    def _connection_scope(self) -> AbstractContextManager[Any]:
        """State that lives as long as one connection (none by default)."""
        return nullcontext()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and start accepting; returns the bound address."""
        if self._socket is not None:
            raise ServiceError("server already started")
        if self._finished:
            raise ServiceError("server already stopped; build a new one")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._port))
        listener.listen(16)
        listener.settimeout(self._poll_seconds)  # poll stop/drain between accepts
        self._socket = listener
        acceptor = threading.Thread(
            target=self._accept_loop,
            name=f"{type(self).__name__}-accept",
            daemon=True,
        )
        acceptor.start()
        self._acceptor = acceptor
        return self.address

    def stop(self) -> None:
        """Stop the server without abandoning in-flight work.

        Equivalent to :meth:`drain` under the configured deadline:
        in-flight connection handlers are joined (bounded) *before*
        :meth:`_on_drain` runs, so an executing request is answered,
        never cut off mid-``_respond``.
        """
        self.drain()

    def request_drain(self) -> None:
        """Begin a graceful drain in the background (idempotent).

        Safe to call from a signal handler or a connection handler:
        it only sets the draining flag and spawns the drain thread.
        """
        self._draining.set()
        with self._handler_lock:
            if self._drain_thread is not None or self._finished:
                return
            self._drain_thread = threading.Thread(
                target=self.drain, name=f"{type(self).__name__}-drain", daemon=True
            )
            self._drain_thread.start()

    def drain(self, deadline_seconds: float | None = None) -> bool:
        """Gracefully stop: refuse new work, finish admitted work, exit.

        The sequence: stop accepting (close the listener), give
        in-flight connection handlers *deadline_seconds* (default: the
        configured drain deadline) to finish the requests they are
        serving, run :meth:`_on_drain` — which unblocks any straggling
        handler — then set the stop flag and reap stragglers. Returns
        True when every handler finished inside the deadline.
        Idempotent; concurrent callers serialize on one drain.
        """
        with self._drain_lock:
            if self._finished:
                return self._drained_clean
            self._draining.set()
            deadline = (
                deadline_seconds
                if deadline_seconds is not None
                else self._drain_deadline
            )
            self._close_listener()
            acceptor = self._acceptor
            if acceptor is not None and acceptor is not threading.current_thread():
                acceptor.join(timeout=5.0)
            self._acceptor = None
            clean = self._join_handlers(deadline)
            self._on_drain()
            self._stop.set()
            self._join_handlers(5.0)
            self._metrics.incr(self.METRIC_PREFIX + "drain.completed")
            if not clean:
                self._metrics.incr(self.METRIC_PREFIX + "drain.deadline_expired")
            self._drained_clean = clean
            self._finished = True
            return clean

    def serve_forever(self, *, poll_seconds: float = 0.2) -> None:
        """Block the calling thread until :meth:`stop` (or ``shutdown`` op)."""
        while not self._stop.wait(timeout=poll_seconds):
            pass

    def _close_listener(self) -> None:
        listener = self._socket
        self._socket = None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _join_handlers(self, deadline_seconds: float) -> bool:
        """Join live handler threads; True if all finished in time."""
        deadline = time.monotonic() + deadline_seconds
        while True:
            with self._handler_lock:
                threads = [
                    thread
                    for thread in self._handlers
                    if thread.is_alive() and thread is not threading.current_thread()
                ]
            if not threads:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            threads[0].join(timeout=min(remaining, 0.5))

    # -- connection handling -------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop.is_set() and not self._draining.is_set():
            listener = self._socket
            if listener is None:
                break
            try:
                connection, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us during stop()/drain()
            self._metrics.incr(self.METRIC_PREFIX + "connections.accepted")
            if self._draining.is_set() or self._stop.is_set():
                self._refuse(connection, "server is draining")
                continue
            with self._handler_lock:
                active = sum(1 for t in self._handlers if t.is_alive())
                if active >= self._max_connections:
                    handler = None
                else:
                    handler = threading.Thread(
                        target=self._handle_connection,
                        args=(connection,),
                        name=f"{type(self).__name__}-conn",
                        daemon=True,
                    )
                    self._handlers[handler] = connection
                    self._metrics.gauge(
                        self.METRIC_PREFIX + "connections.active", active + 1
                    )
            if handler is None:
                self._refuse(
                    connection,
                    f"connection limit reached ({self._max_connections})",
                )
                continue
            handler.start()

    def _refuse(self, connection: socket.socket, detail: str) -> None:
        """Answer one typed ``overloaded`` line and close (best effort)."""
        self._metrics.incr(self.METRIC_PREFIX + "connections.rejected")
        try:
            connection.settimeout(1.0)
            connection.sendall(
                json.dumps(
                    {"ok": False, "error": "overloaded", "detail": detail}
                ).encode("ascii")
                + b"\n"
            )
        except OSError:
            pass
        finally:
            try:
                connection.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def _read_line(
        self, connection: socket.socket, buffer: bytearray
    ) -> bytes | None:
        """Read one newline-terminated line into *buffer*; None = close.

        Owns its buffer instead of trusting ``makefile().readline``:
        a ``readline(limit)`` that fills its limit returns a truncated
        partial line that would otherwise be parsed as one malformed
        request plus a second garbage request. Here an overlong line
        raises :class:`_LineTooLong` (answered with a typed
        ``bad_request``), a mid-line disconnect is counted and
        dropped, and the stop/drain flags are polled between reads so
        a drain never waits on an idle peer.
        """
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                if newline + 1 > self._max_line_bytes:
                    raise _LineTooLong(newline + 1)
                line = bytes(buffer[: newline + 1])
                del buffer[: newline + 1]
                return line
            if len(buffer) > self._max_line_bytes:
                raise _LineTooLong(len(buffer))
            if self._stop.is_set():
                return None
            if self._draining.is_set() and not buffer:
                return None  # idle connection; drain closes it
            try:
                chunk = connection.recv(1 << 16)
            except socket.timeout:
                continue
            except OSError:
                return None
            if not chunk:
                if buffer:
                    self._metrics.incr(self.EVENT_PREFIX + "midline_disconnects")
                return None
            buffer.extend(chunk)

    def _handle_connection(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(self._poll_seconds)
            buffer = bytearray()
            with connection, self._connection_scope() as scope:
                while not self._stop.is_set():
                    try:
                        line = self._read_line(connection, buffer)
                    except _LineTooLong as error:
                        self._metrics.incr(self.EVENT_PREFIX + "oversize_rejected")
                        self._send_response(
                            connection,
                            {
                                "ok": False,
                                "error": "bad_request",
                                "detail": (
                                    f"request line too long ({error.length} bytes "
                                    f"> {self._max_line_bytes}); closing connection"
                                ),
                            },
                        )
                        return
                    if line is None:
                        return
                    response = self._respond(line, scope)
                    if not self._send_response(connection, response):
                        return
                    if response.get("op") == "bye":
                        self._stop.set()
                        return
                    if response.get("op") == "draining":
                        self.request_drain()
                        return
                    if self._draining.is_set():
                        return
        finally:
            with self._handler_lock:
                self._handlers.pop(threading.current_thread(), None)
                active = sum(1 for t in self._handlers if t.is_alive())
                self._metrics.gauge(self.METRIC_PREFIX + "connections.active", active)

    def _send_response(
        self, connection: socket.socket, response: dict[str, Any]
    ) -> bool:
        """Write one response line; False means the connection is dead.

        The ``server.write`` chaos site: a plan may drop the write,
        truncate it, or slow it down. Dropping/truncating a response
        is recoverable for the peer only because a retried request id
        is served from the idempotency record, never re-executed.
        """
        data = json.dumps(response).encode("ascii") + b"\n"
        chaos = self._write_chaos
        action = chaos.draw("server.write") if chaos is not None else None
        try:
            if action == "drop_before_write":
                self._metrics.incr(self.EVENT_PREFIX + "chaos_injected")
                return False
            if action == "truncate_write":
                self._metrics.incr(self.EVENT_PREFIX + "chaos_injected")
                connection.sendall(data[: max(1, len(data) // 2)])
                return False
            if action == "slow_write" and chaos is not None:
                step = chaos.slow_chunk_bytes
                for offset in range(0, len(data), step):
                    connection.sendall(data[offset : offset + step])
                    time.sleep(chaos.slow_pause_seconds)
                return True
            connection.sendall(data)
            return True
        except OSError:
            return False

    def _respond(self, line: bytes, scope: Any = None) -> dict[str, Any]:
        """Parse one request line and answer it; failures become data."""
        try:
            try:
                payload = json.loads(line)
            except ValueError as error:
                raise ServiceError(f"request is not valid JSON: {error}") from error
            if not isinstance(payload, dict):
                raise ServiceError("request must be a JSON object")
            op = payload.get("op", "query")
            if op == "ping":
                return {"ok": True, "op": "pong"}
            if op == "stats":
                return {"ok": True, "op": "stats", "stats": self.stats()}
            if op == "health":
                return {"ok": True, "op": "health", "health": self.health()}
            if op == "drain":
                return {"ok": True, "op": "draining"}
            if op == "shutdown":
                return {"ok": True, "op": "bye"}
            return self._respond_op(op, payload, scope)
        except Exception as error:
            kind = _error_kind(error)
            if kind == "internal":
                self._metrics.incr(self.EVENT_PREFIX + "internal_errors")
            return {
                "ok": False,
                "error": kind,
                "detail": str(error) or type(error).__name__,
            }


class OffTargetServer(JsonLinesServer):
    """Serve one :class:`OffTargetService` over a local TCP socket.

    The loop, framing, connection cap and drain are
    :class:`JsonLinesServer`'s; this class adds the service's ops and
    the execute-once idempotency record behind them. ``repro-offtarget
    serve`` announces the bound :attr:`address` on stdout.

    Parameters
    ----------
    host, port, max_connections, max_line_bytes:
        As for :class:`JsonLinesServer`.
    idempotency_capacity:
        How many completed responses (for requests carrying an ``id``)
        are remembered for retry deduplication, LRU-bounded.
    drain_deadline_seconds:
        How long :meth:`drain` waits for in-flight connection handlers
        before closing the service (which resolves every admitted
        future and unblocks any stragglers).
    chaos:
        Optional :class:`~repro.service.chaos.ChaosPlan` consulted at
        the ``server.write`` site.
    """

    def __init__(
        self,
        service: OffTargetService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_connections: int = 64,
        max_line_bytes: int = MAX_LINE_BYTES,
        idempotency_capacity: int = 1024,
        drain_deadline_seconds: float = 10.0,
        chaos: ChaosPlan | None = None,
    ) -> None:
        if not isinstance(idempotency_capacity, int) or idempotency_capacity < 1:
            raise ServiceError(
                f"idempotency_capacity must be a positive integer, "
                f"got {idempotency_capacity!r}"
            )
        super().__init__(
            metrics=service.metrics,
            host=host,
            port=port,
            max_connections=max_connections,
            max_line_bytes=max_line_bytes,
            drain_deadline_seconds=drain_deadline_seconds,
            write_chaos=chaos,
        )
        self._service = service
        self._idempotency_capacity = idempotency_capacity
        self._idemp_lock = threading.Lock()
        self._inflight: dict[str, "Future[Any]"] = {}
        # Completed responses as compact JSON text, which takes less
        # memory than the response's dict tree (15 vs 24-28 KB for 99 hits).
        self._completed: "OrderedDict[str, str]" = OrderedDict()
        self._executions: dict[str, int] = {}
        self._started = time.monotonic()
        self._inflight_ops_lock = threading.Lock()
        self._inflight_ops = 0

    @property
    def idempotency_capacity(self) -> int:
        return self._idempotency_capacity

    @property
    def service(self) -> OffTargetService:
        """The service this server fronts."""
        return self._service

    @property
    def inflight_requests(self) -> int:
        """Executing ops (query/design) currently being served."""
        with self._inflight_ops_lock:
            return self._inflight_ops

    @property
    def uptime_seconds(self) -> float:
        """Seconds since this server object was constructed."""
        return time.monotonic() - self._started

    def execution_counts(self) -> dict[str, int]:
        """How many times each request id was actually submitted.

        The chaos suite's duplicate detector: under any retry schedule
        every value must stay at 1.
        """
        with self._idemp_lock:
            return dict(self._executions)

    def idempotent_ids(self) -> tuple[tuple[str, bool], ...]:
        """(request id, completed?) pairs currently remembered."""
        with self._idemp_lock:
            completed = [(request_id, True) for request_id in self._completed]
            inflight = [(request_id, False) for request_id in self._inflight]
        return tuple(completed + inflight)

    def completed_response(self, request_id: str) -> dict[str, Any] | None:
        """The remembered response for *request_id*, if any (checker)."""
        with self._idemp_lock:
            response = self._completed.get(request_id)
        return json.loads(response) if response is not None else None

    def health(self) -> dict[str, Any]:
        """Readiness/liveness snapshot (the ``health`` op's payload).

        Carries the load signals a membership prober needs to make
        *load-aware* decisions, not just a liveness ack: in-flight
        executing ops, cache hit/miss counters, the registered session
        list, and uptime (a small uptime after a large one means the
        node restarted and lost its sessions and cache).
        """
        service = self._service.health()
        draining = self._draining.is_set()
        stopped = self._stop.is_set()
        return {
            "live": not stopped,
            "ready": (
                not draining
                and not stopped
                and self._socket is not None
                and bool(service["ready"])
            ),
            "draining": draining,
            "connections": self.active_connections,
            "max_connections": self._max_connections,
            "inflight": self.inflight_requests,
            "uptime_seconds": self.uptime_seconds,
            "queue_depth": service["queue_depth"],
            "max_queue_depth": service["max_queue_depth"],
            "sessions": service["sessions"],
            "cache": service["cache"],
            "executions": int(self._metrics.counter("service.server.executions")),
            "deduped": int(
                self._metrics.counter("service.server.requests.deduped")
            ),
        }

    def stats(self) -> dict[str, Any]:
        """Service metrics: coalesced batches, cache hit rate, sheds."""
        return self._service.stats()

    def die(self) -> None:
        """Crash abruptly: no drain, no goodbye (the chaos kill switch).

        The in-process stand-in for ``SIGKILL`` in cross-node chaos
        tests: the listener and every open connection are torn down
        immediately and the serve loop is told to exit, abandoning
        admitted work exactly as a real crash would. The underlying
        service object is *not* closed — its state (execution counts,
        idempotency records) stays inspectable post-mortem, which is
        what the duplicate-execution proofs audit.
        """
        self._metrics.incr("service.server.died")
        self._stop.set()
        self._draining.set()
        self._close_listener()
        with self._handler_lock:
            connections = list(self._handlers.values())
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        # Deliberately no _drain_lock: a crash must never block behind
        # an in-progress graceful drain. The flag writes are atomic and
        # a later stop()/drain() call returns immediately.
        self._finished = True
        self._drained_clean = False

    def _on_drain(self) -> None:
        """Close the service: the batcher stops *after* draining its
        queue, so every admitted future resolves and any handler still
        waiting in ``_respond_query`` is unblocked."""
        self._service.close()

    # -- the ops --------------------------------------------------------------

    def _respond_op(
        self, op: str, payload: dict[str, Any], scope: Any
    ) -> dict[str, Any]:
        if op == "register":
            return self._respond_register(payload)
        if op == "cache_export":
            return self._respond_cache_export(payload)
        if op == "cache_adopt":
            return self._respond_cache_adopt(payload)
        if op == "query":
            return self._track_inflight(self._respond_query, payload)
        if op == "design":
            return self._track_inflight(self._respond_design, payload)
        raise ServiceError(f"unknown op {op!r}")

    def _track_inflight(
        self,
        respond: Callable[[dict[str, Any]], dict[str, Any]],
        payload: dict[str, Any],
    ) -> dict[str, Any]:
        """Run an executing op under the in-flight gauge the health op
        reports (what makes membership decisions load-aware)."""
        with self._inflight_ops_lock:
            self._inflight_ops += 1
            self._metrics.gauge("service.server.inflight", self._inflight_ops)
        try:
            return respond(payload)
        finally:
            with self._inflight_ops_lock:
                self._inflight_ops -= 1
                self._metrics.gauge("service.server.inflight", self._inflight_ops)

    def _respond_register(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Idempotently ensure a genome session exists on this node.

        Registering a session that already exists is a no-op answered
        with ``created: false`` — the existing content wins, because a
        re-register races only against the client's own earlier send
        (same content) after a retry or a backend restart. This is
        what lets a reconnecting client repair a restarted backend
        without coordinating "did my first register land?".
        """
        session_id = str(payload.get("session", "default"))
        raw = payload.get("sequences")
        if not isinstance(raw, list) or not raw:
            raise ServiceError("register needs a non-empty 'sequences' list")
        try:
            sequences = tuple(
                Sequence.from_text(str(entry["name"]), str(entry["text"]))
                for entry in raw
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed register request: {error!r}") from error
        if session_id in self._service.sessions:
            created = False
        else:
            try:
                self._service.sessions.add_sequences(session_id, sequences)
                created = True
            except ServiceError:
                # Lost a register/register race: the session exists now,
                # which is all this op promises.
                created = False
        self._metrics.incr("service.server.registers")
        return {
            "ok": True,
            "op": "registered",
            "session": session_id,
            "created": created,
        }

    def _respond_cache_export(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Ship a cached CompiledGuide artefact to a peer (via the router).

        A pure probe: on a miss it answers ``found: false`` rather
        than compiling, and the peek moves no cache counters, so
        warmup forwarding never distorts the hit/miss accounting the
        SVC rules audit.
        """
        raw_guide = payload.get("guide")
        if not isinstance(raw_guide, dict):
            raise ServiceError("cache_export needs a 'guide' object")
        try:
            guide = guide_from_wire(raw_guide)
            budget = budget_from_wire(payload.get("budget", {}))
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(
                f"malformed cache_export request: {error!r}"
            ) from error
        compiled = self._service.cache.peek(guide, budget)
        if compiled is None:
            return {"ok": True, "op": "artefact", "found": False, "artefact": None}
        blob = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        self._metrics.incr("service.server.cache_exports")
        return {
            "ok": True,
            "op": "artefact",
            "found": True,
            "artefact": base64.b64encode(blob).decode("ascii"),
            "key": compiled.guide.name,
        }

    def _respond_cache_adopt(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Adopt a peer-compiled artefact into this node's cache.

        The payload must decode to a :class:`CompiledGuide` whose name
        matches its content's canonical name — the cache refuses
        anything else — so a corrupted transfer surfaces as a typed
        ``bad_request``, never as wrong hits.
        """
        raw = payload.get("artefact")
        if not isinstance(raw, str) or not raw:
            raise ServiceError("cache_adopt needs a base64 'artefact' string")
        try:
            blob = base64.b64decode(raw.encode("ascii"), validate=True)
            compiled = pickle.loads(blob)
        except ServiceError:
            raise
        except Exception as error:  # noqa: BLE001 - decode failures are typed
            raise ServiceError(f"artefact does not decode: {error!r}") from error
        if not isinstance(compiled, CompiledGuide):
            raise ServiceError(
                f"artefact decodes to {type(compiled).__name__}, "
                f"not a CompiledGuide"
            )
        key = self._service.cache.adopt(compiled)
        self._metrics.incr("service.server.cache_adoptions")
        return {"ok": True, "op": "adopted", "key": canonical_name(key)}

    def _decode_query(
        self, payload: dict[str, Any]
    ) -> tuple[tuple[Guide, ...], SearchBudget, str, str, float | None]:
        """Parse a query payload, wrapping malformed-wire stdlib errors.

        Anything a hostile payload can provoke out of the wire
        decoders (missing keys, wrong shapes, bad numbers) becomes a
        typed :class:`ServiceError` here, so ``bad_request`` stays the
        client's verdict and a bare stdlib exception further down the
        stack keeps meaning ``internal``.
        """
        raw_guides = payload.get("guides")
        if not isinstance(raw_guides, list) or not raw_guides:
            raise ServiceError("query needs a non-empty 'guides' list")
        default_pam = payload.get("pam", "NGG")
        try:
            guides = tuple(
                guide_from_wire(raw, default_pam=default_pam) for raw in raw_guides
            )
            budget = budget_from_wire(payload.get("budget", {}))
            session_id = str(payload.get("session", "default"))
            request_id = str(payload.get("id", ""))
            raw_timeout = payload.get("timeout")
            timeout = checked_timeout(
                None if raw_timeout is None else float(raw_timeout)
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed query: {error!r}") from error
        return guides, budget, session_id, request_id, timeout

    def _submit(
        self,
        guides: tuple[Guide, ...],
        budget: SearchBudget,
        session_id: str,
        request_id: str,
        timeout: float | None,
    ) -> "Future[ServiceResult]":
        self._metrics.incr("service.server.executions")
        if request_id:
            self._executions[request_id] = self._executions.get(request_id, 0) + 1
        return self._service.query_async(
            guides,
            budget,
            session_id=session_id,
            request_id=request_id,
            timeout_seconds=timeout,
        )

    def _respond_idempotent(
        self,
        request_id: str,
        start: Callable[[], "Future[Any]"],
        render: Callable[[Any], dict[str, Any]],
    ) -> dict[str, Any]:
        """Execute-once machinery shared by every executing op.

        With a *request_id*: a recorded completed response is replayed
        bit-identically without re-executing; an id already in flight
        joins the first execution's future; otherwise *start* runs
        exactly once and its rendered response is remembered as compact
        JSON text (LRU, ``idempotency_capacity``-bounded); a replay
        decodes it, so the wire bytes match. A typed failure is *not*
        recorded — a shed/expired/over-capacity request never
        executed, so resubmission is safe. Without an id the op simply
        executes (nothing to deduplicate against).
        """
        if request_id:
            with self._idemp_lock:
                recorded = self._completed.get(request_id)
                if recorded is not None:
                    # A retried id: answer what the first execution
                    # answered, bit-identically, without re-executing.
                    self._completed.move_to_end(request_id)
                    self._metrics.incr("service.server.requests.deduped")
                    return json.loads(recorded)
                future = self._inflight.get(request_id)
                if future is None:
                    future = start()
                    self._inflight[request_id] = future
                else:
                    self._metrics.incr("service.server.requests.deduped")
        else:
            future = start()
        try:
            result = future.result()
        except Exception:
            # A typed failure is not recorded: deadline/capacity/shed
            # requests were never executed, so resubmission is safe.
            if request_id:
                with self._idemp_lock:
                    self._inflight.pop(request_id, None)
            raise
        response = render(result)
        if request_id:
            record = json.dumps(response, separators=(",", ":"))
            with self._idemp_lock:
                self._inflight.pop(request_id, None)
                self._completed[request_id] = record
                while len(self._completed) > self._idempotency_capacity:
                    self._completed.popitem(last=False)
        return response

    def _respond_query(self, payload: dict[str, Any]) -> dict[str, Any]:
        guides, budget, session_id, request_id, timeout = self._decode_query(payload)

        def render(result: ServiceResult) -> dict[str, Any]:
            return {
                "ok": True,
                "op": "result",
                "id": result.request_id,
                "num_hits": result.num_hits,
                "hits": [hit_to_wire(hit) for hit in result.hits],
                "stats": result.stats,
            }

        return self._respond_idempotent(
            request_id,
            lambda: self._submit(guides, budget, session_id, request_id, timeout),
            render,
        )

    # -- the design op -------------------------------------------------------

    def _decode_design(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Parse a design payload, wrapping malformed-wire stdlib errors."""
        raw_region = payload.get("region")
        if not isinstance(raw_region, str) or not raw_region:
            raise ServiceError("design needs a non-empty 'region' sequence string")
        try:
            region = Sequence.from_text(
                str(payload.get("region_name", "region")), raw_region
            )
            pam = get_pam(str(payload.get("pam", "NGG")))
            guide_length = _wire_integer(
                payload.get("guide_length", 20), "guide_length"
            )
            budget = budget_from_wire(payload.get("budget", {}))
            session_id = str(payload.get("session", "default"))
            request_id = str(payload.get("id", ""))
            raw_timeout = payload.get("timeout")
            timeout = checked_timeout(
                None if raw_timeout is None else float(raw_timeout)
            )
            raw_weights = payload.get("weights")
            if raw_weights is not None and not isinstance(raw_weights, dict):
                raise ServiceError("design 'weights' must be a JSON object")
            include_hits = payload.get("include_hits", True)
            if not isinstance(include_hits, bool):
                raise ServiceError(
                    f"design 'include_hits' must be a JSON boolean, "
                    f"got {include_hits!r}"
                )
        except (KeyError, TypeError, ValueError) as error:
            raise ServiceError(f"malformed design request: {error!r}") from error
        return {
            "region": region,
            "pam": pam,
            "guide_length": guide_length,
            "budget": budget,
            "session_id": session_id,
            "request_id": request_id,
            "timeout": timeout,
            "weights": raw_weights,
            "include_hits": include_hits,
        }

    def _start_design(self, params: dict[str, Any]) -> "Future[Any]":
        """Begin one design execution; its future resolves the report.

        The pipeline itself runs on a worker thread so a design id in
        flight can be joined by a concurrent retry exactly like a
        query id; the vetting stage inside goes through this server's
        own service (session registry, compiled-guide cache,
        admission control).
        """
        from ..design.pipeline import run_design
        from ..design.score import weights_from_mapping

        weights = weights_from_mapping(
            params["weights"], guide_length=params["guide_length"]
        )
        self._metrics.incr("service.server.executions")
        self._metrics.incr("service.server.design_requests")
        request_id = params["request_id"]
        if request_id:
            self._executions[request_id] = self._executions.get(request_id, 0) + 1
        future: "Future[Any]" = Future()

        def _run() -> None:
            try:
                report = run_design(
                    params["region"],
                    None,
                    params["pam"],
                    guide_length=params["guide_length"],
                    budget=params["budget"],
                    weights=weights,
                    service=self._service,
                    session_id=params["session_id"],
                    request_id=request_id,
                    timeout_seconds=params["timeout"],
                )
            except BaseException as error:  # noqa: BLE001 - relayed to caller
                future.set_exception(error)
            else:
                future.set_result(report)

        threading.Thread(
            target=_run, name="repro-service-design", daemon=True
        ).start()
        return future

    def _respond_design(self, payload: dict[str, Any]) -> dict[str, Any]:
        params = self._decode_design(payload)

        def render(report: Any) -> dict[str, Any]:
            from ..design.pipeline import report_to_json

            return {
                "ok": True,
                "op": "design_result",
                "id": params["request_id"],
                "candidates": report.num_candidates,
                "report": report_to_json(
                    report, include_hits=params["include_hits"]
                ),
            }

        return self._respond_idempotent(
            params["request_id"], lambda: self._start_design(params), render
        )
