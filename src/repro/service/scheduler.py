"""Request scheduling: coalesce concurrent queries into shared passes.

The paper's core economic property is that **one** streaming pass of
the genome serves *all* loaded guide automata simultaneously. This
scheduler is the software analogue for a serving workload: concurrent
queries — each carrying its own guides — are coalesced into one
multi-guide search whose single set of genome passes answers all of
them, and the merged hit list is demultiplexed back into per-request
results that are **bit-identical** to running each request alone (the
differential guarantee pinned by ``tests/test_service.py``).

Batching is continuous: an idle batch thread dispatches the first
admitted request at once, and everything admitted while that batch
runs forms the next one, so a batch's size follows the load with no
timer to tune. With ``workers > 1`` every pass runs on one
:class:`~repro.core.parallel.ShardPool` that the scheduler keeps for
its lifetime, so the shard workers are forked once, on the first
pooled pass, rather than once per request. Each pass hands the
session's :class:`~repro.core.bitparallel.LaneIndex` to the search, so
each chunk's PAM lanes are found once per session rather than once
per request: in-process shards read them through it, and the pool's
workers, which inherit the session's genome at the fork, through
indexes of their own. A pooled shard ships only its chunk's place in
the genome, and a session's sequences go to the pool in one round. A
session registered after the fork makes its first pooled pass fork
the workers once more.

Why demultiplexing is exact
---------------------------
The functional kernel enumerates each guide's hits independently of
every other guide in the batch, and hit identity/dedup keys include
the guide name; coalescing therefore changes *how often the genome is
read*, never *what any one guide matches*. Guides are canonicalised by
content (:func:`~repro.service.cache.cache_key`) so identical
sequences requested by different clients share one automaton and one
scan, and each request's hits are renamed back to its own guide names
before being sorted into the same order a solo
:class:`~repro.core.search.OffTargetSearch` run would produce.

Capacity and admission control
------------------------------
A coalesced batch is pre-flighted against the configured platform
capacity through the same shared rule the spatial engines'
``validate_capacity`` routes through (:mod:`repro.check.automata`):
an over-capacity batch is split greedily into sequential passes, and a
guide that cannot fit the device at all fails *only the requests that
asked for it* with :class:`~repro.errors.CapacityError`. The queue is
bounded — a submit beyond ``max_queue_depth`` is shed with a typed
:class:`~repro.errors.ServiceOverloadedError` — and each admitted
request may carry a deadline; one that expires before dispatch fails
with :class:`~repro.errors.DeadlineExceededError`. An admitted request
is never silently dropped: every future resolves with a result or a
typed error, including on shutdown.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Sequence as SequenceType, Union

from ..core.compiler import CompiledGuide, CompiledLibrary, SearchBudget
from ..core.parallel import ParallelSearch, ShardPool
from ..errors import (
    CapacityError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit
from ..grna.library import GuideLibrary
from ..obs import Metrics
from ..platforms.resources import fpga_luts_for
from ..platforms.spec import ApSpec, FpgaSpec
from .cache import CacheKey, CompiledGuideCache, cache_key
from .sessions import SessionRegistry

_request_ids = itertools.count(1)


@dataclass(frozen=True)
class QueryRequest:
    """One client query: a guide set, a budget, and a target session.

    ``deadline`` is an absolute :func:`time.monotonic` timestamp; a
    request still queued past it is failed, not searched.
    """

    guides: tuple[Guide, ...]
    budget: SearchBudget
    session_id: str = "default"
    request_id: str = ""
    deadline: float | None = None

    def __post_init__(self) -> None:
        if not self.guides:
            raise ServiceError("a query needs at least one guide")
        names = [guide.name for guide in self.guides]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ServiceError(f"duplicate guide names in query: {duplicates}")
        if not isinstance(self.budget, SearchBudget):
            raise ServiceError(f"budget must be a SearchBudget, got {self.budget!r}")
        if not self.request_id:
            object.__setattr__(self, "request_id", f"req-{next(_request_ids)}")


@dataclass(frozen=True)
class ServiceResult:
    """One request's demultiplexed outcome."""

    request_id: str
    hits: tuple[OffTargetHit, ...]
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def num_hits(self) -> int:
        return len(self.hits)


@dataclass
class _Pending:
    """Parent-side bookkeeping for one admitted request."""

    request: QueryRequest
    future: "Future[ServiceResult]"
    admitted_at: float


def split_into_passes(
    compiled: SequenceType[CompiledGuide],
    spec: Union[ApSpec, FpgaSpec, None],
) -> tuple[list[list[CompiledGuide]], list[CompiledGuide]]:
    """Greedily pack *compiled* into capacity-respecting passes.

    Mirrors the shared CAP-rule packing (:mod:`repro.check.automata`):
    guides are indivisible placement units packed in order; a guide
    whose cost exceeds the whole device is returned in the second
    element (*unplaceable*) — no multi-pass schedule can fix it.

    With no *spec* nothing is priced: reading a guide's STE count
    builds its homogeneous automaton, which only capacity packing needs.
    """
    if spec is None:
        return ([list(compiled)] if compiled else []), []
    if isinstance(spec, ApSpec):
        capacity = spec.capacity_stes
        cost_of = lambda guide: guide.num_stes  # noqa: E731
    else:
        capacity = spec.luts
        cost_of = lambda guide: fpga_luts_for(guide.num_stes, spec)  # noqa: E731
    passes: list[list[CompiledGuide]] = []
    unplaceable: list[CompiledGuide] = []
    current: list[CompiledGuide] = []
    remaining = capacity
    for compiled_guide in compiled:
        needed = cost_of(compiled_guide)
        if needed > capacity:
            unplaceable.append(compiled_guide)
            continue
        if needed > remaining and current:
            passes.append(current)
            current = []
            remaining = capacity
        remaining -= needed
        current.append(compiled_guide)
    if current:
        passes.append(current)
    return passes, unplaceable


class RequestScheduler:
    """The coalescing batch executor behind :class:`OffTargetService`.

    Deterministic by construction: :meth:`flush` drains and executes
    the current queue synchronously (what the differential tests
    drive); :meth:`start` merely runs the same flush from a background
    thread whenever it is idle and a request is pending, so timing
    affects *which* requests share a batch, never what any request
    returns.
    """

    def __init__(
        self,
        sessions: SessionRegistry,
        cache: CompiledGuideCache,
        *,
        max_queue_depth: int = 128,
        workers: int = 1,
        chunk_length: int = 1 << 20,
        capacity_spec: Union[ApSpec, FpgaSpec, None] = None,
        metrics: Metrics | None = None,
    ) -> None:
        if not isinstance(max_queue_depth, int) or max_queue_depth < 1:
            raise ServiceError(
                f"max_queue_depth must be a positive integer, got {max_queue_depth!r}"
            )
        if not isinstance(workers, int) or workers < 1:
            raise ServiceError(
                f"workers must be a positive integer, got {workers!r}"
            )
        self._sessions = sessions
        self._cache = cache
        self._max_queue_depth = max_queue_depth
        self._workers = workers
        self._chunk_length = chunk_length
        self._capacity_spec = capacity_spec
        self._metrics = metrics if metrics is not None else Metrics()
        self._cond = threading.Condition()
        self._pending: list[_Pending] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._flush_lock = threading.Lock()
        # Only one batch runs at a time (the flush lock), so only one
        # search uses the pool at a time.
        self._pool = ShardPool(workers) if workers > 1 else None

    # -- introspection -----------------------------------------------------

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._pending)

    @property
    def max_queue_depth(self) -> int:
        return self._max_queue_depth

    def pool_stats(self) -> dict[str, int]:
        """The shard pool's size and how many executors it has spawned."""
        return {
            "workers": self._workers,
            "spawns": self._pool.spawns if self._pool is not None else 0,
        }

    @property
    def stopped(self) -> bool:
        """True once :meth:`stop` has shut the background batcher down."""
        return self._stop.is_set() and self._thread is None

    # -- admission ---------------------------------------------------------

    def submit(self, request: QueryRequest) -> "Future[ServiceResult]":
        """Admit *request*; returns the future its result will resolve.

        Raises :class:`ServiceOverloadedError` when the queue is at
        capacity (the request is shed, not enqueued) and
        :class:`ServiceError` for malformed requests or once :meth:`stop`
        has begun — all *before* admission, so an admitted request
        always resolves.
        """
        if request.session_id not in self._sessions:
            raise ServiceError(
                f"unknown session {request.session_id!r}; "
                f"registered: {self._sessions.ids()}"
            )
        with self._cond:
            # Read under the lock stop() sets it under: a request is
            # either refused here or queued before stop's final flush.
            if self._stop.is_set():
                raise ServiceError("scheduler is stopped")
            if len(self._pending) >= self._max_queue_depth:
                self._metrics.incr("service.requests.shed")
                raise ServiceOverloadedError(
                    f"service queue at capacity "
                    f"({len(self._pending)}/{self._max_queue_depth} requests); "
                    f"retry later"
                )
            future: "Future[ServiceResult]" = Future()
            self._pending.append(_Pending(request, future, time.monotonic()))
            self._metrics.incr("service.requests.admitted")
            self._metrics.gauge("service.queue_depth", len(self._pending))
            self._cond.notify_all()
        return future

    # -- the coalescing flush ----------------------------------------------

    def flush(self) -> int:
        """Drain the queue: group, dispatch, demultiplex, resolve.

        Returns the number of requests resolved (results and typed
        failures alike). Safe to call concurrently with submits; a
        request admitted mid-flush lands in the next flush.
        """
        with self._cond:
            drained = self._pending
            self._pending = []
            self._metrics.gauge("service.queue_depth", 0)
        if not drained:
            return 0
        with self._flush_lock:
            groups: dict[tuple[str, SearchBudget], list[_Pending]] = {}
            for pending in drained:
                key = (pending.request.session_id, pending.request.budget)
                groups.setdefault(key, []).append(pending)
            for session_id, budget in sorted(
                groups,
                key=lambda k: (k[0], k[1].mismatches, k[1].rna_bulges, k[1].dna_bulges),
            ):
                batch = groups[(session_id, budget)]
                try:
                    self._dispatch_batch(session_id, budget, batch)
                except Exception as error:  # pragma: no cover - defensive
                    for pending in batch:
                        if not pending.future.done():
                            pending.future.set_exception(error)
        return len(drained)

    def _expire(self, pending: _Pending, now: float) -> bool:
        """Fail *pending* if its deadline passed; True when expired."""
        deadline = pending.request.deadline
        if deadline is None or now <= deadline:
            return False
        self._metrics.incr("service.requests.deadline_expired")
        pending.future.set_exception(
            DeadlineExceededError(
                f"request {pending.request.request_id} expired "
                f"{now - deadline:.3f}s before dispatch"
            )
        )
        return True

    def _dispatch_batch(
        self, session_id: str, budget: SearchBudget, batch: list[_Pending]
    ) -> None:
        """Run one coalesced (session, budget) batch and demultiplex."""
        started = time.monotonic()
        live = [p for p in batch if not self._expire(p, started)]
        if not live:
            return
        session = self._sessions.get(session_id)

        # Canonicalise: one compiled artefact per distinct guide content.
        order: list[CacheKey] = []
        compiled_by_key: dict[CacheKey, CompiledGuide] = {}
        for pending in live:
            for guide in pending.request.guides:
                key = cache_key(guide, budget)
                if key not in compiled_by_key:
                    compiled_by_key[key] = self._cache.get(guide, budget)
                    order.append(key)

        # Capacity pre-flight: pack into passes, fail the unplaceable.
        passes, unplaceable = split_into_passes(
            [compiled_by_key[key] for key in order], self._capacity_spec
        )
        failed_keys = self._fail_unplaceable(unplaceable, compiled_by_key, budget, live)

        self._metrics.incr("service.batches")
        self._metrics.incr("service.batch_requests", len(live))
        if len(live) > 1:
            self._metrics.incr("service.coalesced_batches")
        self._metrics.incr("service.batch_guides", len(order))

        # Execute the passes; every pass streams the session once.
        hits_by_name: dict[str, list[OffTargetHit]] = {}
        for pass_guides in passes:
            executor = ParallelSearch(
                [compiled.guide for compiled in pass_guides],
                budget,
                workers=self._workers,
                chunk_length=self._chunk_length,
                pool=self._pool,
                lane_index=session.lanes,
            )
            self._metrics.incr("service.genome_passes")
            self._metrics.incr("service.pass_guides", len(pass_guides))
            for hit in executor.search_many(session.sequences):
                hits_by_name.setdefault(hit.guide_name, []).append(hit)

        # Demultiplex: rename each request's hits back and sort them
        # into the order a solo OffTargetSearch run produces.
        finished = time.monotonic()
        for pending in live:
            if pending.future.done():
                continue  # failed the capacity pre-flight above
            request = pending.request
            if any(cache_key(g, budget) in failed_keys for g in request.guides):
                continue  # already failed; defensive
            request_hits: list[OffTargetHit] = []
            for guide in request.guides:
                name = compiled_by_key[cache_key(guide, budget)].guide.name
                request_hits.extend(
                    replace(hit, guide_name=guide.name)
                    for hit in hits_by_name.get(name, ())
                )
            result = ServiceResult(
                request_id=request.request_id,
                hits=tuple(sorted(request_hits)),
                stats={
                    "session": session_id,
                    "batch_requests": len(live),
                    "batch_guides": len(order),
                    "passes": len(passes),
                    "queue_seconds": started - pending.admitted_at,
                    "batch_seconds": finished - started,
                },
            )
            self._metrics.incr("service.requests.completed")
            pending.future.set_result(result)

    def _fail_unplaceable(
        self,
        unplaceable: list[CompiledGuide],
        compiled_by_key: dict[CacheKey, CompiledGuide],
        budget: SearchBudget,
        live: list[_Pending],
    ) -> set[CacheKey]:
        """Fail only the requests that asked for an unplaceable guide.

        The error carries the standard per-guide breakdown by routing
        through the same shared capacity rule the spatial engines'
        ``validate_capacity`` uses.
        """
        if not unplaceable:
            return set()
        from ..check.automata import require_capacity

        failed_keys = {
            key
            for key, compiled in compiled_by_key.items()
            if any(compiled is bad for bad in unplaceable)
        }
        assert self._capacity_spec is not None
        for pending in live:
            bad = [
                guide
                for guide in pending.request.guides
                if cache_key(guide, budget) in failed_keys
            ]
            if not bad:
                continue
            self._metrics.incr("service.requests.over_capacity")
            try:
                require_capacity(
                    CompiledLibrary(
                        library=GuideLibrary.from_guides(
                            [compiled_by_key[cache_key(g, budget)].guide for g in bad]
                        ),
                        budget=budget,
                        guides=tuple(
                            compiled_by_key[cache_key(g, budget)] for g in bad
                        ),
                    ),
                    self._capacity_spec,
                )
            except CapacityError as error:
                names = ", ".join(sorted(guide.name for guide in bad))
                pending.future.set_exception(
                    CapacityError(
                        f"request {pending.request.request_id}: guide(s) {names} "
                        f"cannot fit the configured device\n{error}"
                    )
                )
        return failed_keys

    # -- background batching -----------------------------------------------

    def start(self) -> None:
        """Run the batching loop in a daemon thread."""
        if self._thread is not None:
            raise ServiceError("scheduler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-service-batcher", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Refuse new requests, stop the loop, drain what remains, close the pool.

        Nothing admitted is dropped: every request queued before the
        stop resolves in the final flush. The pool closes after it,
        under the flush lock, so no pass is still using it.
        """
        with self._cond:
            self._stop.set()
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.flush()
        if self._pool is not None:
            with self._flush_lock:
                self._pool.close()

    def _loop(self) -> None:
        # Dispatch on idle: flush as soon as anything is pending. What
        # is admitted while a batch runs waits in the queue and forms
        # the next batch.
        while True:
            with self._cond:
                while not self._pending and not self._stop.is_set():
                    self._cond.wait()
                if self._stop.is_set():
                    return
            self.flush()


def make_requests(
    guides: Union[Guide, Iterable[Guide]],
    budget: SearchBudget,
    *,
    session_id: str = "default",
    request_id: str = "",
    deadline: float | None = None,
) -> QueryRequest:
    """Convenience constructor accepting a bare guide or an iterable."""
    if isinstance(guides, Guide):
        guides = (guides,)
    return QueryRequest(
        guides=tuple(guides),
        budget=budget,
        session_id=session_id,
        request_id=request_id,
        deadline=deadline,
    )
