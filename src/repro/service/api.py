"""`OffTargetService` — the in-process face of the serving layer.

One object wires the three serving components together — the
:class:`~repro.service.sessions.SessionRegistry`, the
:class:`~repro.service.cache.CompiledGuideCache`, and the
:class:`~repro.service.scheduler.RequestScheduler` — behind a blocking
:meth:`query` / non-blocking :meth:`query_async` API. The socket
server (:mod:`repro.service.server`) is a thin JSON-lines shim over
this class, so everything the protocol can do, a library caller can do
directly::

    from repro import OffTargetService, SearchBudget, Guide

    with OffTargetService() as service:
        service.add_genome("default", genome)
        result = service.query([Guide("EMX1", "GAGTCCGAGCAGAAGAAGAA")],
                               SearchBudget(mismatches=3))
        print(result.num_hits)

Construct with ``background=False`` for a deterministic single-thread
service: queries then batch only when submitted through
:meth:`query_async` and flushed explicitly — the mode the differential
tests drive.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Any, Iterable, Union

from ..core.compiler import SearchBudget
from ..errors import ServiceError
from ..genome.sequence import Sequence
from ..grna.guide import Guide
from ..obs import Metrics
from ..platforms.spec import ApSpec, FpgaSpec
from .cache import CompiledGuideCache
from .scheduler import QueryRequest, RequestScheduler, ServiceResult, make_requests
from .sessions import GenomeSession, SessionRegistry


def checked_timeout(timeout_seconds: float | None) -> float | None:
    """*timeout_seconds* if it is ``None`` or a finite number > 0.

    A request's timeout is its only deadline. NaN, zero and negative
    values would expire it before dispatch and an infinity would never
    expire, so each is refused with :class:`ServiceError`.
    """
    if timeout_seconds is None or (
        math.isfinite(timeout_seconds) and timeout_seconds > 0
    ):
        return timeout_seconds
    raise ServiceError(
        f"timeout must be a finite number of seconds > 0, got {timeout_seconds!r}"
    )


class OffTargetService:
    """A persistent, batch-serving off-target search service.

    Parameters mirror the scheduler's knobs; see
    :class:`~repro.service.scheduler.RequestScheduler`. With
    ``background=True`` (the default) a daemon thread drains the queue
    whenever it is idle and a request is pending, so requests admitted
    while a batch runs coalesce into the next one; with
    ``background=False`` the caller drives batching via :meth:`flush`.
    """

    def __init__(
        self,
        *,
        cache_capacity: int = 256,
        max_queue_depth: int = 128,
        workers: int = 1,
        chunk_length: int = 1 << 20,
        capacity_spec: Union[ApSpec, FpgaSpec, None] = None,
        background: bool = True,
    ) -> None:
        self._metrics = Metrics()
        self._sessions = SessionRegistry(metrics=self._metrics)
        self._cache = CompiledGuideCache(cache_capacity, metrics=self._metrics)
        self._scheduler = RequestScheduler(
            self._sessions,
            self._cache,
            max_queue_depth=max_queue_depth,
            workers=workers,
            chunk_length=chunk_length,
            capacity_spec=capacity_spec,
            metrics=self._metrics,
        )
        self._background = background
        self._closed = False
        if background:
            self._scheduler.start()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "OffTargetService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Refuse new queries and drain every admitted request."""
        if self._closed:
            return
        self._closed = True
        self._scheduler.stop()

    # -- component access ---------------------------------------------------

    @property
    def sessions(self) -> SessionRegistry:
        return self._sessions

    @property
    def cache(self) -> CompiledGuideCache:
        return self._cache

    @property
    def scheduler(self) -> RequestScheduler:
        return self._scheduler

    @property
    def metrics(self) -> Metrics:
        return self._metrics

    # -- genome sessions ----------------------------------------------------

    def add_genome(
        self,
        session_id: str,
        genome: Union[Sequence, Iterable[Sequence], str, Path],
    ) -> GenomeSession:
        """Register a reference once: sequences in memory or a FASTA path."""
        if isinstance(genome, (str, Path)):
            return self._sessions.add_fasta(session_id, genome)
        return self._sessions.add_sequences(session_id, genome)

    # -- querying -----------------------------------------------------------

    def query_async(
        self,
        guides: Union[Guide, Iterable[Guide]],
        budget: SearchBudget,
        *,
        session_id: str = "default",
        request_id: str = "",
        timeout_seconds: float | None = None,
    ) -> "Future[ServiceResult]":
        """Admit a query; the returned future resolves after its batch runs.

        ``timeout_seconds`` becomes the request's dispatch deadline
        (admission control), measured from now; one that is not a
        finite number > 0 is refused before admission.
        """
        if self._closed:
            raise ServiceError("service is closed")
        checked_timeout(timeout_seconds)
        deadline = (
            time.monotonic() + timeout_seconds if timeout_seconds is not None else None
        )
        request = make_requests(
            guides,
            budget,
            session_id=session_id,
            request_id=request_id,
            deadline=deadline,
        )
        return self._scheduler.submit(request)

    def query(
        self,
        guides: Union[Guide, Iterable[Guide]],
        budget: SearchBudget,
        *,
        session_id: str = "default",
        request_id: str = "",
        timeout_seconds: float | None = None,
    ) -> ServiceResult:
        """Blocking query: admit, (batch,) execute, and demultiplex.

        In background mode this waits for the batcher; in deterministic
        mode it flushes the queue itself, so a solo blocking query
        always completes.
        """
        future = self.query_async(
            guides,
            budget,
            session_id=session_id,
            request_id=request_id,
            timeout_seconds=timeout_seconds,
        )
        if not self._background:
            self._scheduler.flush()
        return future.result(timeout=None)

    def submit(self, request: QueryRequest) -> "Future[ServiceResult]":
        """Admit a fully-formed :class:`QueryRequest` (advanced callers)."""
        if self._closed:
            raise ServiceError("service is closed")
        return self._scheduler.submit(request)

    def flush(self) -> int:
        """Deterministically drain and execute the current queue."""
        return self._scheduler.flush()

    # -- observability -------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Cheap readiness snapshot (no metrics serialisation).

        What the socket server's ``health`` op builds on: queue
        pressure, registered sessions, and the compiled-guide cache
        counters — the signals a load balancer, membership prober, or
        drain script needs, without the full :meth:`stats` payload.
        """
        cache = self._cache.stats()
        return {
            "ready": not self._closed and not self._scheduler.stopped,
            "closed": self._closed,
            "queue_depth": self._scheduler.queue_depth,
            "max_queue_depth": self._scheduler.max_queue_depth,
            "sessions": self._sessions.ids(),
            "cache": {
                "size": int(cache["size"]),
                "capacity": int(cache["capacity"]),
                "hits": int(cache["hits"]),
                "misses": int(cache["misses"]),
                "adoptions": int(cache["adoptions"]),
                "hit_rate": float(cache["hit_rate"]),
            },
        }

    def stats(self) -> dict[str, Any]:
        """Service-level metrics: the ``--stats-json`` payload.

        Carries the acceptance-level signals by name — coalesced-batch
        count, cache hit rate, shed-request count, and the shard pool's
        size and spawn count (a rising count means faults recycled the
        pool) — plus the raw :class:`~repro.obs.Metrics` snapshot for
        everything else.
        """
        metrics = self._metrics
        cache = self._cache.stats()
        return {
            "queue_depth": self._scheduler.queue_depth,
            "max_queue_depth": self._scheduler.max_queue_depth,
            "batches": int(metrics.counter("service.batches")),
            "coalesced_batches": int(metrics.counter("service.coalesced_batches")),
            "batch_requests": int(metrics.counter("service.batch_requests")),
            "genome_passes": int(metrics.counter("service.genome_passes")),
            "requests": {
                "admitted": int(metrics.counter("service.requests.admitted")),
                "completed": int(metrics.counter("service.requests.completed")),
                "shed": int(metrics.counter("service.requests.shed")),
                "deadline_expired": int(
                    metrics.counter("service.requests.deadline_expired")
                ),
                "over_capacity": int(
                    metrics.counter("service.requests.over_capacity")
                ),
            },
            "cache": cache,
            "pool": self._scheduler.pool_stats(),
            "sessions": self._sessions.describe(),
            "obs": metrics.snapshot(),
        }
