"""Parallel sharded off-target search across a host process pool.

The paper's platforms get their throughput from spatial parallelism:
every guide automaton consumes the symbol stream simultaneously. The
functional Python path is a single-threaded loop, so this module
recovers host-side parallelism the way multi-core DNA-scanning systems
do: shard the work, fan the shards across processes, merge. With
``workers=1`` the same shards run in-process, one chunk after another,
so this is also the serial chunked scanner.

Work is sharded genome first:

* **genome chunks** — the overlap-correct windows of
  :func:`repro.core.streaming.iter_chunks`, so a site straddling a
  chunk boundary is still found exactly once (hits wholly inside a
  chunk's overlapped prefix were already reported by the previous
  chunk and are dropped);
* **guide batches** — disjoint slices of the guide library, cut only
  when there are fewer chunks than workers. Every batch repeats its
  chunk's PAM-lane work, so the panel is split just far enough to
  give every worker a shard.

A shard carries its chunk's codes as a view into the genome's code
array, so building the shards copies nothing, alongside plain guide
records and the :class:`SearchBudget` — never automaton objects. A pool
worker compiles each shard's
:class:`~repro.core.bitparallel.BitParallelPanel` itself; the
in-process path compiles each guide batch's panel once per run and
scans every chunk with it. :func:`_search_shard` scans one shard on
both paths. The parent merges shard results in shard order and
canonically dedupes, so the final hit list is **bit-identical** to the
whole-genome kernel regardless of worker count, chunk size, or
scheduling order — the property the differential test suite pins
against the :class:`~repro.core.reference.NaiveSearcher` oracle.

Pooled shards run on a :class:`ShardPool`, the one owner of a
:class:`ProcessPoolExecutor`. It forks its workers on the first pooled
dispatch and keeps them: a caller that runs many searches (the serving
scheduler) holds one pool for its lifetime, and a search given no pool
makes a private one for the length of one ``search`` or
``search_many`` call. A multi-sequence search submits every sequence's
shards in one supervised round.

Resident genome
---------------
A caller that searches one fixed genome repeatedly (a serving session)
passes a kept :class:`~repro.core.bitparallel.LaneIndex` over it.
In-process shards read their lanes through it. Pool workers are forked,
so they inherit every kept index alive at the spawn, sequences
included, and the pool records which. A pooled shard whose chunk lies
in such an index ships as a :class:`ResidentChunk` (index token,
sequence, offset, length) instead of its codes: the worker cuts the
chunk from its own inherited copy of the sequence and reads lanes
through an index of its own over those sequences, built on first use
and kept for the worker's life under the same per-base bound. A search
whose index the live workers did not inherit (a session registered
after the spawn) retires them, idle between searches, and forks fresh
ones. Searches without a kept index (one-shot scans) ship codes.

Fault tolerance
---------------

A worker that dies, stalls, or returns garbage must not take the
search down or silently degrade the result, so shard execution is a
small supervised scheduler rather than a bare ``pool.map``:

* every shard attempt carries a deadline (``shard_timeout``); an
  attempt that blows it is abandoned and the shard is **requeued onto
  the surviving workers**;
* a failed attempt (worker death, timeout, corrupt payload) is
  **resubmitted at once**, up to :data:`SHARD_ATTEMPTS` attempts per
  shard. Waiting would fix none of these failures: the kernel is
  deterministic and reports the same sites on every pass, so a retry
  needs only a live worker, not time;
* a worker death breaks the whole :class:`ProcessPoolExecutor`
  (CPython semantics), so the scheduler **retires it, spawns fresh
  workers** from the same :class:`ShardPool` (at most
  :data:`SHARD_ATTEMPTS` times per run) and requeues everything that
  was in flight;
* an executor still running an abandoned attempt is retired when the
  search ends, so a fault on a long-lived pool never reaches the next
  search;
* shards that exhaust their pooled attempts fall back to a
  **last-resort in-process re-execution** of only those shards, with
  :data:`SHARD_ATTEMPTS` more attempts — the merge stays bit-identical
  because every recovery path re-runs the same deterministic kernel on
  the same shard payload;
* ``workers=1`` runs the shards serially in-process (no pool); a pool
  that fails to spawn degrades to the same serial path. Both are
  recorded in the returned stats rather than raised.

Every returned shard payload is validated against the shard's own
bounds and budget (:func:`validate_shard_result`), so a corrupt result
is caught and retried instead of silently merged.

Every degradation path is deterministic and therefore testable: a
:class:`FaultPlan` injects ``kill`` / ``hang`` / ``corrupt`` faults
for (shard, attempt) pairs plus pool-spawn failures, and
``tests/test_faults.py`` pins that each path still reproduces the
oracle hit set with the recovery visible in the run's stats.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from ..errors import EngineError
from ..genome.sequence import Sequence
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit, dedupe_hits
from ..obs import Metrics
from . import bitparallel
from .compiler import SearchBudget
from .streaming import iter_chunks

#: Injectable fault kinds, in increasing order of subtlety.
FAULT_KINDS = ("kill", "hang", "corrupt")

#: Attempts per shard in each execution arena (the pooled run and the
#: in-process rescue), and the cap on pool rebuilds per run.
SHARD_ATTEMPTS = 3

#: The codes a resident shard's task carries to a worker: none.
_NO_CODES = np.empty(0, dtype=np.uint8)


class ShardError(EngineError):
    """One shard attempt failed; ``kind`` names the failure class."""

    def __init__(self, message: str, kind: str = "error") -> None:
        super().__init__(message)
        self.kind = kind
        # Keep *kind* in args so the exception survives pickling
        # across the process boundary.
        self.args = (message, kind)


class ShardTimeout(ShardError):
    """A shard attempt exceeded its deadline."""

    def __init__(self, message: str) -> None:
        super().__init__(message, kind="timeout")
        self.args = (message,)


@dataclass(frozen=True)
class FaultSpec:
    """Inject one fault: *kind* on *attempt* of shard *shard_id*.

    Attempts are numbered from 1 and count every execution of the
    shard — pooled, serial, and the in-process rescue alike — so a
    plan describes a run's whole failure schedule deterministically.
    """

    shard_id: int
    attempt: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise EngineError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.attempt < 1:
            raise EngineError("fault attempts are numbered from 1")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic fault-injection schedule for one search run.

    ``kill`` terminates the worker process mid-shard (in-process
    execution raises instead of exiting); ``hang`` stalls the worker
    for ``hang_seconds`` before it completes (observable only when a
    ``shard_timeout`` is configured); ``corrupt`` makes the shard
    return a payload that fails validation. ``pool_spawn_failures``
    makes that many pool creations fail, exercising the serial
    fallback and the mid-run rebuild path.
    """

    faults: tuple[FaultSpec, ...] = ()
    pool_spawn_failures: int = 0
    hang_seconds: float = 30.0

    @classmethod
    def kill(cls, shard_id: int, attempt: int = 1) -> "FaultPlan":
        return cls(faults=(FaultSpec(shard_id, attempt, "kill"),))

    @classmethod
    def hang(cls, shard_id: int, attempt: int = 1, *, hang_seconds: float = 30.0) -> "FaultPlan":
        return cls(
            faults=(FaultSpec(shard_id, attempt, "hang"),),
            hang_seconds=hang_seconds,
        )

    @classmethod
    def corrupt(cls, shard_id: int, attempt: int = 1) -> "FaultPlan":
        return cls(faults=(FaultSpec(shard_id, attempt, "corrupt"),))

    def fault_for(self, shard_id: int, attempt: int) -> str | None:
        """The fault kind scheduled for this (shard, attempt), if any."""
        for spec in self.faults:
            if spec.shard_id == shard_id and spec.attempt == attempt:
                return spec.kind
        return None


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: a genome chunk × a guide batch.

    ``codes`` is the chunk's slice of the genome's code array, a view
    rather than a copy; pickling the task to a worker ships just that
    slice, unless the chunk is resident (:class:`ResidentChunk`).
    Guides travel as small frozen records and the budget as three
    ints, so a worker compiles the panel itself.
    """

    shard_id: int
    sequence_name: str
    chunk_start: int
    chunk_overlap: int
    codes: np.ndarray
    guides: tuple[Guide, ...]
    budget: SearchBudget

    @property
    def chunk_length(self) -> int:
        return int(self.codes.size)


@dataclass(frozen=True)
class ResidentChunk:
    """Where a pooled shard's chunk lies in a kept lane index its worker
    inherited: what ships in place of the chunk's codes."""

    token: int
    sequence: int
    offset: int
    length: int


@dataclass(frozen=True)
class ShardResult:
    """What one shard reports back: absolute-coordinate hits + timing."""

    shard_id: int
    hits: tuple[OffTargetHit, ...]
    seconds: float
    chunk_start: int
    chunk_length: int

    @property
    def num_hits(self) -> int:
        return len(self.hits)


def _search_shard(
    task: ShardTask,
    panel: bitparallel.BitParallelPanel | None = None,
    lane_index: bitparallel.LaneIndex | None = None,
) -> ShardResult:
    """Scan one shard: the routine pool workers and the in-process path share.

    Pool workers pass no *panel* and compile their own; the in-process
    path passes the one it compiled for the shard's guide batch, and
    the caller's *lane_index*, if any.
    """
    started = time.perf_counter()
    if panel is None:
        panel = bitparallel.BitParallelPanel(task.guides, task.budget)
    hits: list[OffTargetHit] = []
    chunk = Sequence(task.sequence_name, task.codes)
    for hit in panel.find_hits(chunk, lane_index):
        # A hit wholly inside the overlapped prefix was already
        # reported by the previous chunk's shard.
        if task.chunk_overlap and hit.end <= task.chunk_overlap:
            continue
        hits.append(
            replace(
                hit,
                start=hit.start + task.chunk_start,
                end=hit.end + task.chunk_start,
            )
        )
    return ShardResult(
        shard_id=task.shard_id,
        hits=tuple(hits),
        seconds=time.perf_counter() - started,
        chunk_start=task.chunk_start,
        chunk_length=task.chunk_length,
    )


def _corrupted(result: ShardResult) -> ShardResult:
    """An injected-corruption payload: detectably violates every bound."""
    bogus = OffTargetHit("__corrupt__", "??", "?", -7, -3, -1)
    return replace(result, hits=result.hits + (bogus,))


def _run_shard(
    payload: tuple[ShardTask, str | None, float, int],
    panel: bitparallel.BitParallelPanel | None = None,
    lane_index: bitparallel.LaneIndex | None = None,
) -> ShardResult:
    """Worker entry point with fault injection (top-level, picklable).

    *payload* is ``(task, fault_kind, hang_seconds, parent_pid)``;
    *panel* and *lane_index* are passed through to
    :func:`_search_shard`. A ``kill`` fault exits the worker process
    abruptly (raising instead when running inside the parent, so
    in-process execution stays alive); a ``hang`` fault stalls before
    computing; ``corrupt`` computes honestly and then mangles the
    payload.
    """
    task, fault, hang_seconds, parent_pid = payload
    if fault == "hang":
        time.sleep(hang_seconds)
    elif fault == "kill":
        if os.getpid() != parent_pid:
            os._exit(1)
        raise ShardError(f"injected kill of shard {task.shard_id}", kind="kill")
    result = _search_shard(task, panel, lane_index)
    if fault == "corrupt":
        return _corrupted(result)
    return result


#: A pool worker's own lane index per inherited kept index, by token:
#: built on first use and kept for the worker's life. Empty in a parent.
_worker_indexes: dict[int, bitparallel.LaneIndex] = {}


def _worker_index(token: int) -> bitparallel.LaneIndex:
    """This worker's own index over the sequences of inherited index *token*.

    The inherited index object is never scanned through: another parent
    thread may have held its lock at the fork, and in the child that
    lock stays held.
    """
    index = _worker_indexes.get(token)
    if index is None:
        inherited = bitparallel.kept_index(token)
        if inherited is None:
            raise ShardError(f"lane index {token} was not inherited", kind="not_resident")
        index = _worker_indexes[token] = bitparallel.LaneIndex(inherited.sequences)
    return index


def _run_resident(
    payload: tuple[ResidentChunk, ShardTask, str | None, float, int],
) -> ShardResult:
    """Worker entry point for a shard whose chunk is resident (picklable).

    *payload* is ``(chunk, task, fault_kind, hang_seconds, parent_pid)``
    with a task that carries no codes: the worker cuts them from its
    inherited copy of the sequence and scans them through its own index.
    """
    chunk, task, fault, hang_seconds, parent_pid = payload
    index = _worker_index(chunk.token)
    codes = index.sequences[chunk.sequence].codes
    task = replace(task, codes=codes[chunk.offset : chunk.offset + chunk.length])
    return _run_shard((task, fault, hang_seconds, parent_pid), None, index)


def validate_shard_result(task: ShardTask, result: object) -> str | None:
    """Check a shard payload against its task's own invariants.

    Returns a human-readable defect description, or ``None`` when the
    payload is well-formed. Validation is what turns a corrupt worker
    response into a retryable failure instead of a silently wrong
    merge: every hit must lie inside the shard's chunk span, name a
    guide from the shard's batch, and respect the search budget.
    """
    if not isinstance(result, ShardResult):
        return f"payload is {type(result).__name__}, not ShardResult"
    if result.shard_id != task.shard_id:
        return f"shard_id {result.shard_id} != task {task.shard_id}"
    if not isinstance(result.hits, tuple):
        return "hits payload is not a tuple"
    if result.seconds < 0:
        return "negative shard wall time"
    names = {guide.name for guide in task.guides}
    low = task.chunk_start
    high = task.chunk_start + task.chunk_length
    budget = task.budget
    for hit in result.hits:
        if not isinstance(hit, OffTargetHit):
            return f"hit payload is {type(hit).__name__}"
        if hit.guide_name not in names:
            return f"hit names unknown guide {hit.guide_name!r}"
        if hit.strand not in ("+", "-"):
            return f"invalid strand {hit.strand!r}"
        if not (low <= hit.start < hit.end <= high):
            return (
                f"hit span [{hit.start}, {hit.end}) outside shard chunk "
                f"[{low}, {high})"
            )
        if not (
            0 <= hit.mismatches <= budget.mismatches
            and 0 <= hit.rna_bulges <= budget.rna_bulges
            and 0 <= hit.dna_bulges <= budget.dna_bulges
        ):
            return f"hit edits exceed budget: {hit}"
    return None


def merge_shards(results: Iterable[ShardResult]) -> list[OffTargetHit]:
    """Deterministic merge: shard order, then canonical dedupe + sort.

    Sorting by ``shard_id`` before deduplication makes the merge
    independent of pool scheduling/completion order; the canonical
    dedupe then yields the same sorted list the serial paths produce.
    """
    ordered = sorted(results, key=lambda result: result.shard_id)
    hits: list[OffTargetHit] = []
    for result in ordered:
        hits.extend(result.hits)
    return dedupe_hits(hits)


@dataclass
class _ShardState:
    """Parent-side bookkeeping for one shard across its attempts."""

    task: ShardTask
    metrics: Metrics  # its sequence's
    attempts: int = 0
    failures: list[str] = field(default_factory=list)
    timeouts: int = 0
    result: ShardResult | None = None
    recovery: str | None = None  # None | "retry" | "in_process"


class ShardPool:
    """The process pool pooled shards run on, kept across searches.

    It owns the one :class:`ProcessPoolExecutor` of ``workers``
    processes and spawns it on the first pooled dispatch, not at
    construction. Its workers are forked, so they inherit every kept
    :class:`~repro.core.bitparallel.LaneIndex` alive at the spawn, and
    the pool records their tokens. A search that finds the executor
    broken, or leaves an abandoned attempt running on it, passes it to
    :meth:`retire`, and the next dispatch spawns fresh workers.
    Searches sharing a pool must not overlap (the serving scheduler
    runs one batch at a time); the lock guards only spawn, retire and
    close.
    """

    def __init__(self, workers: int) -> None:
        if not isinstance(workers, int) or workers < 1:
            raise EngineError(f"workers must be a positive integer, got {workers!r}")
        self._workers = workers
        self._executor: ProcessPoolExecutor | None = None
        self._inherited: frozenset[int] = frozenset()
        self._spawns = 0
        self._closed = False
        self._lock = threading.Lock()

    @property
    def spawns(self) -> int:
        """Executors spawned so far: faults and indexes kept after a
        spawn each recycle it."""
        return self._spawns

    def executor(
        self, lane_index: bitparallel.LaneIndex | None = None
    ) -> ProcessPoolExecutor:
        """The live executor, spawning one if there is none.

        A live executor whose workers did not inherit the kept
        *lane_index* (one built after the spawn, such as a session
        registered later) is shut down, idle between searches, and a
        fresh one forked in its place, which inherits it.
        """
        token = None if lane_index is None else lane_index.token
        stale: ProcessPoolExecutor | None = None
        with self._lock:
            if self._closed:
                raise EngineError("shard pool is closed")
            if token is not None and token not in self._inherited:
                stale, self._executor = self._executor, None
            if self._executor is None:
                # The workers fork on the first submit, so they inherit
                # at least the indexes alive now.
                self._inherited = bitparallel.kept_index_tokens()
                self._executor = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
                self._spawns += 1
            executor = self._executor
        if stale is not None:
            stale.shutdown(wait=True)
        return executor

    def retire(self, executor: ProcessPoolExecutor) -> None:
        """Stop handing out *executor*; never waits on a hung worker."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the live executor down and wait for its workers to exit."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


class ParallelSearch:
    """Sharded multi-process off-target search with supervised recovery.

    Results are guaranteed identical to a whole-genome
    :func:`~repro.core.bitparallel.find_hits` for every worker count,
    chunk size, and recovery path: the chunk axis drops each chunk's
    overlapped-prefix hits, the guide axis partitions disjoint hit
    keys, every retry re-runs the same deterministic kernel on the same
    payload, and the merge is order-canonical.

    Parameters
    ----------
    guides:
        The guide set (any iterable of :class:`Guide`).
    budget:
        Shared :class:`SearchBudget`.
    workers:
        Process count; ``None`` means ``os.cpu_count()``. ``1`` runs
        the shards serially in-process.
    chunk_length:
        Genome chunk size; must exceed the derived overlap. The genome
        is split first and the library only as far as it takes to give
        every worker a shard: ``min(len(guides), ceil(workers /
        chunks))`` guide batches, so a sequence of at least ``workers``
        chunks is scanned with the whole panel in every shard.
    shard_timeout:
        Per-attempt deadline in seconds; ``None`` (default) waits
        indefinitely. An attempt past its deadline is abandoned and
        the shard resubmitted at once onto the surviving workers.
    fault_plan:
        Deterministic fault injection for tests and drills; ``None``
        (default) injects nothing.
    pool:
        The :class:`ShardPool` pooled shards run on. ``None`` (default)
        makes a private ``ShardPool(workers)`` for the length of one
        ``search`` or ``search_many`` call; a caller that searches
        repeatedly passes its own, so the workers are forked once.
    lane_index:
        A kept :class:`~repro.core.bitparallel.LaneIndex` over the
        genome, which a caller that searches one fixed genome
        repeatedly passes so each chunk's lanes are found once.
        In-process shards read their lanes through it; pooled shards
        of its chunks ship as :class:`ResidentChunk` and read them
        through their worker's own index over the same sequences.
        ``None`` (default) builds a throwaway index per shard and
        ships every pooled shard's codes.
    """

    def __init__(
        self,
        guides: Iterable[Guide],
        budget: SearchBudget,
        *,
        workers: int | None = None,
        chunk_length: int = 1 << 20,
        shard_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        pool: ShardPool | None = None,
        lane_index: bitparallel.LaneIndex | None = None,
    ) -> None:
        guide_list = list(guides)
        if not guide_list:
            raise EngineError("parallel search needs at least one guide")
        if workers is None:
            workers = os.cpu_count() or 1
        if not isinstance(workers, int) or workers < 1:
            raise EngineError(f"workers must be a positive integer, got {workers!r}")
        self._guides = guide_list
        self._budget = budget
        self._workers = workers
        max_site = max(g.site_length for g in guide_list) + budget.dna_bulges
        self._overlap = max_site - 1
        if chunk_length <= self._overlap:
            raise EngineError(
                f"chunk_length {chunk_length} must exceed the overlap {self._overlap}"
            )
        self._chunk_length = chunk_length
        if shard_timeout is not None and not shard_timeout > 0:
            raise EngineError(
                f"shard_timeout must be positive or None, got {shard_timeout!r}"
            )
        self._shard_timeout = shard_timeout
        if fault_plan is not None and not isinstance(fault_plan, FaultPlan):
            raise EngineError(f"fault_plan must be a FaultPlan, got {fault_plan!r}")
        self._fault_plan = fault_plan
        if pool is not None and not isinstance(pool, ShardPool):
            raise EngineError(f"pool must be a ShardPool, got {pool!r}")
        self._pool = pool
        if lane_index is not None and not isinstance(lane_index, bitparallel.LaneIndex):
            raise EngineError(f"lane_index must be a LaneIndex, got {lane_index!r}")
        self._lane_index = lane_index

    # -- introspection -----------------------------------------------------

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def overlap(self) -> int:
        return self._overlap

    @property
    def chunk_length(self) -> int:
        return self._chunk_length

    @property
    def shard_timeout(self) -> float | None:
        return self._shard_timeout

    def guide_batches(self, num_chunks: int) -> list[tuple[Guide, ...]]:
        """The disjoint guide batches of a run over *num_chunks* chunks."""
        guides = self._guides
        count = min(len(guides), -(-self._workers // max(1, num_chunks)))
        bounds = [len(guides) * index // count for index in range(count + 1)]
        return [tuple(guides[low:high]) for low, high in zip(bounds, bounds[1:])]

    # -- sharding ----------------------------------------------------------

    def shard_tasks(self, genome: Sequence) -> list[ShardTask]:
        """All (chunk × guide-batch) shards for *genome*, in canonical order."""
        chunks = list(
            iter_chunks(genome, chunk_length=self._chunk_length, overlap=self._overlap)
        )
        batches = self.guide_batches(len(chunks))
        tasks: list[ShardTask] = []
        for chunk in chunks:
            for batch in batches:
                tasks.append(
                    ShardTask(
                        shard_id=len(tasks),
                        sequence_name=genome.name,
                        chunk_start=chunk.start,
                        chunk_overlap=chunk.overlap,
                        codes=chunk.sequence.codes,
                        guides=batch,
                        budget=self._budget,
                    )
                )
        return tasks

    # -- fault and retry plumbing ------------------------------------------

    def _fault_for(self, shard_id: int, attempt: int) -> str | None:
        if self._fault_plan is None:
            return None
        return self._fault_plan.fault_for(shard_id, attempt)

    def _hang_seconds(self) -> float:
        return self._fault_plan.hang_seconds if self._fault_plan else 0.0

    def _record_failure(self, state: _ShardState, kind: str) -> None:
        state.failures.append(kind)
        if kind == "timeout":
            state.timeouts += 1
        state.metrics.incr("parallel.failures")
        state.metrics.incr(f"parallel.failures.{kind}")

    def _record_success(self, state: _ShardState, result: ShardResult) -> None:
        state.result = result
        state.metrics.incr("parallel.shards_completed")
        state.metrics.incr("parallel.kernel_positions", state.task.chunk_length)
        state.metrics.incr("parallel.report_events", result.num_hits)
        state.metrics.observe("parallel.shard_seconds", result.seconds)

    def _acquire_executor(
        self, pool: ShardPool, run: dict, metrics: Metrics
    ) -> ProcessPoolExecutor | None:
        """The pool's executor, honouring injected spawn failures."""
        if run["spawn_failures_left"] > 0:
            run["spawn_failures_left"] -= 1
        else:
            try:
                return pool.executor(self._lane_index)
            except (OSError, BrokenExecutor, RuntimeError):
                pass
        run["pool_spawn_failures"] += 1
        metrics.incr("parallel.pool_spawn_failures")
        return None

    # -- in-process execution (serial path and last-resort rescue) ---------

    def _in_process_attempts(
        self, state: _ShardState, run: dict, *, recovery_label: str = "retry"
    ) -> bool:
        """Run one shard in-process, up to :data:`SHARD_ATTEMPTS` attempts.

        An injected ``hang`` is only observable against a configured
        deadline, so with ``shard_timeout`` set it becomes an immediate
        (simulated) :class:`ShardTimeout`; without one the stall cannot
        be detected and the attempt simply completes.
        """
        parent_pid = os.getpid()
        # One compiled panel per guide batch serves every chunk of the run.
        guides = state.task.guides
        if guides not in run["panels"]:
            run["panels"][guides] = bitparallel.BitParallelPanel(guides, self._budget)
        panel = run["panels"][guides]
        for _ in range(SHARD_ATTEMPTS):
            attempt = state.attempts + 1
            state.attempts = attempt
            fault = self._fault_for(state.task.shard_id, attempt)
            try:
                if fault == "hang":
                    fault = None
                    if self._shard_timeout is not None:
                        raise ShardTimeout(
                            f"injected hang of shard {state.task.shard_id} "
                            f"(attempt {attempt}, in-process)"
                        )
                result = _run_shard(
                    (state.task, fault, 0.0, parent_pid), panel, self._lane_index
                )
                defect = validate_shard_result(state.task, result)
                if defect:
                    raise ShardError(
                        f"shard {state.task.shard_id} returned a corrupt payload: {defect}",
                        kind="corrupt_result",
                    )
            except ShardError as error:
                self._record_failure(state, error.kind)
                continue
            self._record_success(state, result)
            if state.failures:
                state.recovery = recovery_label
            return True
        return False

    def _execute_serial(self, states: list[_ShardState], run: dict) -> None:
        for state in states:
            if not self._in_process_attempts(state, run):
                raise EngineError(
                    f"shard {state.task.shard_id} failed after "
                    f"{state.attempts} attempt(s): {state.failures}"
                )

    # -- pooled execution ---------------------------------------------------

    def _resident(
        self, states: list[_ShardState]
    ) -> dict[int, tuple[ResidentChunk, ShardTask]]:
        """What ships for each shard whose chunk lies in the kept lane
        index: its place, and its task without the codes."""
        index = self._lane_index
        if index is None or index.token is None:
            return {}
        token = index.token
        resident: dict[int, tuple[ResidentChunk, ShardTask]] = {}
        for state in states:
            place = index.locate(state.task.codes)
            if place is not None:
                resident[state.task.shard_id] = (
                    ResidentChunk(token, *place),
                    replace(state.task, codes=_NO_CODES),
                )
        return resident

    def _execute_pooled(
        self,
        states: list[_ShardState],
        pool: ShardPool,
        run: dict,
        metrics: Metrics,
    ) -> None:
        by_id = {state.task.shard_id: state for state in states}
        executor = self._acquire_executor(pool, run, metrics)
        if executor is None:
            # Pool failed to spawn: degrade to the serial path — same
            # shards, same merge, identical results.
            run["serial_fallback"] = True
            self._execute_serial(states, run)
            return
        run["pooled"] = True
        parent_pid = os.getpid()
        # Every executor this search gets inherited its lane index.
        resident = self._resident(states)
        waiting: set[int] = set(by_id)  # shards to (re)submit at once
        in_flight: dict = {}  # Future -> (shard_id, deadline)
        terminal: list[int] = []
        abandoned = False  # an abandoned attempt may still hold a worker

        def schedule_failure(
            state: _ShardState, kind: str, *, consume_budget: bool = True
        ) -> None:
            # A broken-pool failure is collateral damage — the shard's
            # own attempt may have been perfectly healthy — so it
            # requeues without counting against the shard's attempts;
            # runaway kills are bounded by the rebuild cap instead.
            self._record_failure(state, kind)
            if consume_budget and state.attempts >= SHARD_ATTEMPTS:
                terminal.append(state.task.shard_id)
            else:
                waiting.add(state.task.shard_id)

        try:
            while waiting or in_flight:
                now = time.perf_counter()
                broken = False
                for shard_id in sorted(waiting):
                    state = by_id[shard_id]
                    attempt = state.attempts + 1
                    fault = self._fault_for(shard_id, attempt)
                    try:
                        if shard_id in resident:
                            chunk, task = resident[shard_id]
                            future = executor.submit(
                                _run_resident,
                                (chunk, task, fault, self._hang_seconds(), parent_pid),
                            )
                        else:
                            future = executor.submit(
                                _run_shard,
                                (state.task, fault, self._hang_seconds(), parent_pid),
                            )
                    except (BrokenExecutor, RuntimeError):
                        broken = True
                        break
                    waiting.discard(shard_id)
                    state.attempts = attempt
                    deadline = (
                        now + self._shard_timeout
                        if self._shard_timeout is not None
                        else math.inf
                    )
                    in_flight[future] = (shard_id, deadline)

                if not broken:
                    horizon = min(deadline for _, deadline in in_flight.values())
                    timeout = None if horizon == math.inf else max(0.0, horizon - now)
                    done, _ = wait(
                        list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        shard_id, _ = in_flight.pop(future)
                        state = by_id[shard_id]
                        try:
                            result = future.result()
                        except BrokenExecutor:
                            broken = True
                            schedule_failure(state, "worker_death", consume_budget=False)
                            continue
                        except ShardError as error:
                            schedule_failure(state, error.kind)
                            continue
                        except Exception:
                            schedule_failure(state, "error")
                            continue
                        defect = validate_shard_result(state.task, result)
                        if defect:
                            schedule_failure(state, "corrupt_result")
                            continue
                        self._record_success(state, result)
                        if state.failures:
                            state.recovery = "retry"
                    # Abandon attempts past their deadline and requeue the
                    # shard onto the surviving workers; the stale future is
                    # simply ignored if it ever completes.
                    now = time.perf_counter()
                    for future, (shard_id, deadline) in list(in_flight.items()):
                        if now >= deadline:
                            del in_flight[future]
                            abandoned = True
                            schedule_failure(by_id[shard_id], "timeout")

                if broken:
                    # A dead worker poisons the whole executor: every
                    # in-flight shard fails with it. Requeue them all and
                    # rebuild the pool.
                    for future, (shard_id, _) in list(in_flight.items()):
                        del in_flight[future]
                        schedule_failure(
                            by_id[shard_id], "pool_broken", consume_budget=False
                        )
                    pool.retire(executor)
                    executor = None
                    abandoned = False
                    if run["pool_rebuilds"] < SHARD_ATTEMPTS:
                        executor = self._acquire_executor(pool, run, metrics)
                    if executor is None:
                        # Rebuild cap hit or respawn failed: everything
                        # unfinished goes to the in-process rescue below.
                        terminal.extend(sorted(waiting))
                        waiting.clear()
                        break
                    run["pool_rebuilds"] += 1
                    metrics.incr("parallel.pool_rebuilds")
        finally:
            if executor is not None and (abandoned or in_flight):
                # Leave no stale attempt on the workers the next search
                # gets: it starts on fresh ones.
                pool.retire(executor)

        # Last resort: re-execute only the failed shards in-process,
        # with SHARD_ATTEMPTS more attempts. The kernel is
        # deterministic, so the merge stays bit-identical to an
        # all-pooled run.
        for shard_id in sorted(set(terminal)):
            state = by_id[shard_id]
            if state.result is not None:
                continue
            if self._in_process_attempts(state, run, recovery_label="in_process"):
                state.metrics.incr("parallel.in_process_rescues")
            else:
                raise EngineError(
                    f"shard {shard_id} failed after {state.attempts} attempt(s) "
                    f"including in-process rescue: {state.failures}"
                )

    # -- execution ---------------------------------------------------------

    @contextmanager
    def _pool_scope(self) -> Iterator[ShardPool | None]:
        """The pool for one search call: the caller's, a private one, or none."""
        if self._workers == 1:
            yield None
        elif self._pool is not None:
            yield self._pool
        else:
            pool = ShardPool(self._workers)
            try:
                yield pool
            finally:
                pool.close()

    def search(self, genome: Sequence) -> list[OffTargetHit]:
        """Search one sequence; identical to the whole-genome kernel."""
        hits, _ = self.search_with_stats(genome)
        return hits

    def search_with_stats(
        self, genome: Sequence
    ) -> tuple[list[OffTargetHit], dict]:
        """Search plus per-shard timing/retry/hit-count stats.

        The stats dict is what :class:`~repro.engines.base.EngineResult`
        carries under ``stats["parallel"]``, what the CLI's
        ``--stats-json`` emits, and what the scaling/fault benchmarks
        report: requested workers, shard counts along both axes,
        whether a pool actually ran (or fell back to serial), per-shard
        wall seconds / attempts / failure kinds / recovery paths, the
        fault-tolerance totals, and an :class:`~repro.obs.Metrics`
        snapshot of the run. It is :meth:`search_many_with_stats`'s
        one-sequence case.
        """
        hits, (stats,) = self.search_many_with_stats([genome])
        return hits, stats

    def search_many(self, genomes: Iterable[Sequence]) -> list[OffTargetHit]:
        """Search several sequences (chromosomes), merged canonically."""
        hits, _ = self.search_many_with_stats(genomes)
        return hits

    def search_many_with_stats(
        self, genomes: Iterable[Sequence]
    ) -> tuple[list[OffTargetHit], list[dict]]:
        """Search several sequences in one round; hits merged canonically.

        Every sequence's shards are submitted in one supervised round,
        numbered in canonical order (sequence, chunk, guide batch), so a
        one-sequence search keeps :meth:`shard_tasks`' ids. The stats
        are one dict per sequence, describing its own shards. What
        belongs to the round (its wall seconds, pool rebuilds and spawn
        failures, and its ``execute`` span) is reported once, on the
        first sequence's dict, so summing the dicts counts it once.
        """
        with self._pool_scope() as pool:
            return self._search_round(genomes, pool)

    def _search_round(
        self, genomes: Iterable[Sequence], pool: ShardPool | None
    ) -> tuple[list[OffTargetHit], list[dict]]:
        started = time.perf_counter()
        sequences: list[tuple[Sequence, Metrics, list[_ShardState]]] = []
        states: list[_ShardState] = []
        for genome in genomes:
            metrics = Metrics()
            with metrics.span("shard_tasks"):
                tasks = self.shard_tasks(genome)
            first = len(states)
            own = [
                _ShardState(replace(task, shard_id=first + task.shard_id), metrics)
                for task in tasks
            ]
            states.extend(own)
            sequences.append((genome, metrics, own))
        if not sequences:
            return [], []
        round_metrics = sequences[0][1]
        run = {
            "pooled": False,
            "serial_fallback": False,
            "pool_rebuilds": 0,
            "pool_spawn_failures": 0,
            "spawn_failures_left": (
                self._fault_plan.pool_spawn_failures if self._fault_plan else 0
            ),
            "panels": {},
        }
        with round_metrics.span("execute", shards=len(states)):
            if pool is None or len(states) <= 1:
                self._execute_serial(states, run)
            else:
                self._execute_pooled(states, pool, run, round_metrics)
        hits: list[OffTargetHit] = []
        merge_seconds: list[float] = []
        for _, metrics, own in sequences:
            merge_started = time.perf_counter()
            with metrics.span("merge"):
                hits.extend(
                    merge_shards(state.result for state in own if state.result is not None)
                )
            merge_seconds.append(time.perf_counter() - merge_started)
        wall_seconds = time.perf_counter() - started
        per_sequence = [
            self._sequence_stats(genome, metrics, own, run, merged, first=number == 0)
            for number, ((genome, metrics, own), merged) in enumerate(
                zip(sequences, merge_seconds)
            )
        ]
        per_sequence[0]["wall_seconds"] = wall_seconds
        return dedupe_hits(hits), per_sequence

    def _sequence_stats(
        self,
        genome: Sequence,
        metrics: Metrics,
        states: list[_ShardState],
        run: dict,
        merge_seconds: float,
        *,
        first: bool,
    ) -> dict:
        """One sequence's stats dict; see :meth:`search_many_with_stats`."""
        num_chunks = len({state.task.chunk_start for state in states})
        shard_rows = []
        for state in states:
            result = state.result
            shard_rows.append(
                {
                    "shard": state.task.shard_id,
                    "chunk_start": state.task.chunk_start,
                    "seconds": result.seconds if result else 0.0,
                    "hits": result.num_hits if result else 0,
                    "attempts": state.attempts,
                    "failures": list(state.failures),
                    "timeouts": state.timeouts,
                    "recovery": state.recovery,
                }
            )
        failure_totals: dict[str, int] = {}
        for state in states:
            for kind in state.failures:
                failure_totals[kind] = failure_totals.get(kind, 0) + 1
        return {
            "sequence": genome.name,
            "workers": self._workers,
            "pooled": run["pooled"],
            "serial_fallback": run["serial_fallback"],
            "num_shards": len(states),
            "num_chunks": num_chunks,
            "num_guide_batches": len(states) // num_chunks if num_chunks else 0,
            "chunk_length": self._chunk_length,
            "overlap": self._overlap,
            "shards": shard_rows,
            "total_shard_seconds": sum(
                state.result.seconds for state in states if state.result
            ),
            "merge_seconds": merge_seconds,
            "wall_seconds": 0.0,
            "kernel_positions": int(metrics.counter("parallel.kernel_positions")),
            "report_events": int(metrics.counter("parallel.report_events")),
            "fault_tolerance": {
                "shard_timeout": self._shard_timeout,
                "retries": sum(max(0, state.attempts - 1) for state in states),
                "timeouts": sum(state.timeouts for state in states),
                "failures": failure_totals,
                "pool_rebuilds": run["pool_rebuilds"] if first else 0,
                "pool_spawn_failures": run["pool_spawn_failures"] if first else 0,
                "in_process_rescues": sum(
                    state.recovery == "in_process" for state in states
                ),
            },
            "obs": metrics.snapshot(),
        }
