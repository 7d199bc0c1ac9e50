"""Fault-injection suite for the supervised parallel executor.

Every degradation path of :class:`repro.core.parallel.ParallelSearch`
— worker death, hang past the shard deadline, corrupt shard payload,
pool-spawn failure, and the in-process last-resort rescue — must
produce a hit list **bit-identical** to the clean run (and therefore
to the :class:`NaiveSearcher` oracle), with the recovery path visible
in the returned stats. Faults are injected deterministically through
:class:`FaultPlan`, so each path is a plain assertion rather than a
flake hunt. A :class:`ShardPool` that outlives one search must also
keep each fault inside the search that suffered it.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import FaultPlan, ParallelSearch, SearchBudget
from repro.core import parallel as parallel_module
from repro.core.parallel import (
    FaultSpec,
    ShardPool,
    ShardResult,
    _search_shard,
    validate_shard_result,
)
from repro.errors import EngineError
from repro.grna.hit import OffTargetHit

from differential import assert_engines_agree, case_from_seed, oracle_hits
from helpers import hit_multiset

# 3000 bp genome -> 5 chunks -> 5 shards at 2 workers: with more chunks
# than workers the 2-guide panel is not split, so shard ids run 0-4.
CHUNK = 700

# One reproducible differential case shared by the whole module; the
# harness derives the genome (seed 91), the 2-guide panel (seed 92),
# and the mm=1 budget the suite always used.
CASE = case_from_seed(91, chunk_length=CHUNK, name="chrFault")


@pytest.fixture(scope="module")
def genome():
    return CASE.genome


@pytest.fixture(scope="module")
def guides():
    return list(CASE.guides)


@pytest.fixture(scope="module")
def budget():
    return CASE.budget


@pytest.fixture(scope="module")
def oracle():
    return oracle_hits(CASE)


@pytest.fixture(scope="module")
def clean():
    """The fault-free sharded result every faulted run must reproduce.

    ``assert_engines_agree`` pins the clean run (and every other
    engine) to the oracle before the fault tests start from it.
    """
    assert_engines_agree(CASE)
    return ParallelSearch(
        list(CASE.guides), CASE.budget, workers=1, chunk_length=CHUNK
    ).search(CASE.genome)


def run(genome, guides, budget, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("chunk_length", CHUNK)
    executor = ParallelSearch(guides, budget, **kwargs)
    return executor.search_with_stats(genome)


class TestFaultPlan:
    def test_fault_for_matches_shard_and_attempt(self):
        plan = FaultPlan(faults=(FaultSpec(3, 2, "corrupt"),))
        assert plan.fault_for(3, 2) == "corrupt"
        assert plan.fault_for(3, 1) is None
        assert plan.fault_for(2, 2) is None

    def test_constructors(self):
        assert FaultPlan.kill(1).fault_for(1, 1) == "kill"
        assert FaultPlan.corrupt(2, 3).fault_for(2, 3) == "corrupt"
        plan = FaultPlan.hang(0, hang_seconds=0.5)
        assert plan.fault_for(0, 1) == "hang"
        assert plan.hang_seconds == 0.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(EngineError):
            FaultSpec(0, 1, "meltdown")

    def test_rejects_zero_attempt(self):
        with pytest.raises(EngineError):
            FaultSpec(0, 0, "kill")

    def test_executor_rejects_non_plan(self, guides, budget):
        with pytest.raises(EngineError):
            ParallelSearch(guides, budget, fault_plan="kill everything")


class TestKill:
    def test_pooled_kill_recovers(self, genome, guides, budget, oracle, clean):
        hits, stats = run(genome, guides, budget, fault_plan=FaultPlan.kill(1))
        assert hits == clean
        assert hit_multiset(hits) == hit_multiset(oracle)
        ft = stats["fault_tolerance"]
        assert ft["failures"].get("worker_death", 0) >= 1
        assert ft["pool_rebuilds"] >= 1
        assert ft["retries"] >= 1
        assert any(shard["attempts"] > 1 for shard in stats["shards"])

    def test_serial_kill_retries_in_process(self, genome, guides, budget, clean):
        hits, stats = run(
            genome, guides, budget, workers=1, fault_plan=FaultPlan.kill(0)
        )
        assert hits == clean
        shard0 = stats["shards"][0]
        assert shard0["attempts"] == 2
        assert shard0["failures"] == ["kill"]
        assert shard0["recovery"] == "retry"
        assert stats["fault_tolerance"]["retries"] >= 1

    def test_relentless_kill_rescued_in_process(self, genome, guides, budget, clean):
        # Shard 0 dies on its first four attempts; the pool may only be
        # rebuilt three times (SHARD_ATTEMPTS), so the scheduler
        # abandons it and re-executes the failed shards in-process
        # (attempt 5, unfaulted) — the last-resort path.
        plan = FaultPlan(
            faults=tuple(FaultSpec(0, a, "kill") for a in (1, 2, 3, 4))
        )
        hits, stats = run(genome, guides, budget, fault_plan=plan)
        assert hits == clean
        ft = stats["fault_tolerance"]
        assert ft["in_process_rescues"] >= 1
        rescued = [s for s in stats["shards"] if s["recovery"] == "in_process"]
        assert rescued

    def test_unrecoverable_shard_raises(self, genome, guides, budget):
        plan = FaultPlan(
            faults=tuple(FaultSpec(0, a, "kill") for a in range(1, 12))
        )
        executor = ParallelSearch(
            guides, budget, workers=1, chunk_length=CHUNK, fault_plan=plan
        )
        with pytest.raises(EngineError, match="shard 0 failed"):
            executor.search(genome)


class _RecordingTime:
    """Stands in for ``time`` inside ``core/parallel.py``; logs sleeps."""

    def __init__(self):
        self.sleeps = []

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        time.sleep(seconds)

    def __getattr__(self, name):
        return getattr(time, name)


class TestImmediateRetry:
    """A failed shard is resubmitted at once, up to ``SHARD_ATTEMPTS``."""

    @pytest.fixture()
    def clock(self, monkeypatch):
        recorder = _RecordingTime()
        monkeypatch.setattr(parallel_module, "time", recorder)
        return recorder

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_shard_retried_without_waiting(
        self, workers, genome, guides, budget, clean, clock
    ):
        plan = FaultPlan(
            faults=(FaultSpec(0, 1, "corrupt"), FaultSpec(0, 2, "corrupt"))
        )
        executor = ParallelSearch(
            guides, budget, workers=workers, chunk_length=CHUNK, fault_plan=plan
        )
        hits, stats = executor.search_with_stats(genome)
        assert hits == clean
        assert stats["shards"][0]["attempts"] == 3
        assert stats["shards"][0]["failures"] == ["corrupt_result"] * 2
        assert clock.sleeps == []

    def test_serial_attempts_are_capped(self, genome, guides, budget, clock):
        attempts = parallel_module.SHARD_ATTEMPTS
        # Attempt SHARD_ATTEMPTS + 1 would be clean: raising proves the
        # executor stopped at exactly SHARD_ATTEMPTS.
        plan = FaultPlan(
            faults=tuple(FaultSpec(0, a, "kill") for a in range(1, attempts + 1))
        )
        executor = ParallelSearch(
            guides, budget, workers=1, chunk_length=CHUNK, fault_plan=plan
        )
        with pytest.raises(EngineError, match=f"after {attempts} attempt"):
            executor.search(genome)
        assert clock.sleeps == []


class TestHang:
    def test_pooled_hang_times_out_and_requeues(self, genome, guides, budget, clean):
        hits, stats = run(
            genome,
            guides,
            budget,
            shard_timeout=0.25,
            fault_plan=FaultPlan.hang(0, hang_seconds=1.2),
        )
        assert hits == clean
        ft = stats["fault_tolerance"]
        assert ft["timeouts"] >= 1
        assert ft["failures"].get("timeout", 0) >= 1
        assert any(shard["timeouts"] >= 1 for shard in stats["shards"])

    def test_serial_hang_is_simulated_timeout(self, genome, guides, budget, clean):
        hits, stats = run(
            genome,
            guides,
            budget,
            workers=1,
            shard_timeout=0.1,
            fault_plan=FaultPlan.hang(0),
        )
        assert hits == clean
        shard0 = stats["shards"][0]
        assert shard0["failures"] == ["timeout"]
        assert shard0["attempts"] == 2

    def test_hang_without_deadline_is_unobservable(self, genome, guides, budget, clean):
        # No shard_timeout configured: a stall cannot be detected, the
        # attempt simply completes (in-process the sleep is skipped).
        hits, stats = run(
            genome, guides, budget, workers=1, fault_plan=FaultPlan.hang(0)
        )
        assert hits == clean
        assert stats["fault_tolerance"]["timeouts"] == 0


class TestCorrupt:
    def test_pooled_corrupt_detected_and_retried(self, genome, guides, budget, clean):
        hits, stats = run(genome, guides, budget, fault_plan=FaultPlan.corrupt(1))
        assert hits == clean
        assert stats["fault_tolerance"]["failures"].get("corrupt_result", 0) == 1

    def test_serial_corrupt_detected(self, genome, guides, budget, clean):
        hits, stats = run(
            genome, guides, budget, workers=1, fault_plan=FaultPlan.corrupt(0)
        )
        assert hits == clean
        assert stats["shards"][0]["failures"] == ["corrupt_result"]
        assert stats["shards"][0]["recovery"] == "retry"

    def test_validation_accepts_honest_result(self, genome, guides, budget):
        executor = ParallelSearch(guides, budget, workers=1, chunk_length=CHUNK)
        task = executor.shard_tasks(genome)[0]
        assert validate_shard_result(task, _search_shard(task)) is None

    def test_validation_rejects_defects(self, genome, guides, budget):
        executor = ParallelSearch(guides, budget, workers=1, chunk_length=CHUNK)
        task = executor.shard_tasks(genome)[0]
        honest = _search_shard(task)
        assert "not ShardResult" in validate_shard_result(task, "garbage")
        wrong_id = ShardResult(
            shard_id=task.shard_id + 1,
            hits=honest.hits,
            seconds=honest.seconds,
            chunk_start=honest.chunk_start,
            chunk_length=honest.chunk_length,
        )
        assert "shard_id" in validate_shard_result(task, wrong_id)
        out_of_span = ShardResult(
            shard_id=task.shard_id,
            hits=(OffTargetHit(task.guides[0].name, "chrFault", "+", 10**7, 10**7 + 23, 0),),
            seconds=0.0,
            chunk_start=honest.chunk_start,
            chunk_length=honest.chunk_length,
        )
        assert "outside shard chunk" in validate_shard_result(task, out_of_span)
        over_budget = ShardResult(
            shard_id=task.shard_id,
            hits=(OffTargetHit(task.guides[0].name, "chrFault", "+", 0, 23, 99),),
            seconds=0.0,
            chunk_start=honest.chunk_start,
            chunk_length=honest.chunk_length,
        )
        assert "budget" in validate_shard_result(task, over_budget)
        unknown_guide = ShardResult(
            shard_id=task.shard_id,
            hits=(OffTargetHit("nobody", "chrFault", "+", 0, 23, 0),),
            seconds=0.0,
            chunk_start=honest.chunk_start,
            chunk_length=honest.chunk_length,
        )
        assert "unknown guide" in validate_shard_result(task, unknown_guide)


class TestPoolSpawnFailure:
    def test_spawn_failure_degrades_to_serial(self, genome, guides, budget, clean):
        hits, stats = run(
            genome,
            guides,
            budget,
            workers=4,
            fault_plan=FaultPlan(pool_spawn_failures=1),
        )
        assert hits == clean
        assert stats["serial_fallback"] is True
        assert stats["pooled"] is False
        assert stats["fault_tolerance"]["pool_spawn_failures"] == 1

    def test_spawn_failure_visible_in_obs_counters(self, genome, guides, budget):
        _, stats = run(
            genome,
            guides,
            budget,
            workers=4,
            fault_plan=FaultPlan(pool_spawn_failures=1),
        )
        assert stats["obs"]["counters"]["parallel.pool_spawn_failures"] == 1


class TestConformance:
    """Every fault class yields the bit-identical merged hit list."""

    @pytest.mark.parametrize(
        "label,kwargs",
        [
            ("kill-pooled", dict(fault_plan=FaultPlan.kill(1))),
            (
                "hang-pooled",
                dict(
                    shard_timeout=0.25,
                    fault_plan=FaultPlan.hang(0, hang_seconds=1.2),
                ),
            ),
            ("corrupt-pooled", dict(fault_plan=FaultPlan.corrupt(2))),
            (
                "spawn-failure",
                dict(workers=4, fault_plan=FaultPlan(pool_spawn_failures=1)),
            ),
            ("kill-serial", dict(workers=1, fault_plan=FaultPlan.kill(0))),
            ("corrupt-serial", dict(workers=1, fault_plan=FaultPlan.corrupt(0))),
            (
                "kill-then-corrupt",
                dict(
                    fault_plan=FaultPlan(
                        faults=(FaultSpec(0, 1, "corrupt"), FaultSpec(1, 1, "kill"))
                    )
                ),
            ),
        ],
    )
    def test_fault_path_is_bit_identical(
        self, label, kwargs, genome, guides, budget, oracle, clean
    ):
        hits, stats = run(genome, guides, budget, **kwargs)
        assert hits == clean, label
        assert hit_multiset(hits) == hit_multiset(oracle), label
        # Every planned fault names a shard that exists and failed.
        for spec in kwargs["fault_plan"].faults:
            assert spec.shard_id < stats["num_shards"], label
            assert stats["shards"][spec.shard_id]["failures"], label
        # The degradation must be visible, not silent.
        ft = stats["fault_tolerance"]
        degraded = (
            ft["retries"]
            or ft["timeouts"]
            or ft["pool_spawn_failures"]
            or sum(ft["failures"].values())
        )
        assert degraded, f"{label}: no recovery recorded in stats"


class TestSharedPool:
    """One pool across consecutive searches, as the serving scheduler uses it."""

    @pytest.fixture()
    def pool(self):
        pool = ShardPool(2)
        yield pool
        pool.close()

    def assert_clean(self, hits, stats, clean):
        assert hits == clean
        assert stats["pooled"] is True
        ft = stats["fault_tolerance"]
        assert ft["failures"] == {}
        assert ft["pool_rebuilds"] == 0

    def test_kill_does_not_reach_the_next_search(
        self, genome, guides, budget, clean, pool
    ):
        hits, stats = run(genome, guides, budget, pool=pool, fault_plan=FaultPlan.kill(1))
        assert hits == clean
        assert stats["fault_tolerance"]["failures"].get("worker_death", 0) >= 1
        assert stats["fault_tolerance"]["pool_rebuilds"] >= 1
        spawns = pool.spawns
        self.assert_clean(*run(genome, guides, budget, pool=pool), clean)
        assert pool.spawns == spawns

    def test_abandoned_hang_does_not_reach_the_next_search(
        self, genome, guides, budget, clean, pool
    ):
        hits, stats = run(
            genome,
            guides,
            budget,
            pool=pool,
            shard_timeout=0.5,
            fault_plan=FaultPlan.hang(0, hang_seconds=3),
        )
        assert hits == clean
        assert stats["shards"][0]["timeouts"] >= 1
        # The stalled worker stays with the retired executor; the next
        # search starts on fresh workers instead of queueing behind it.
        started = time.perf_counter()
        hits, stats = run(genome, guides, budget, pool=pool)
        assert time.perf_counter() - started < 1.5
        self.assert_clean(hits, stats, clean)
        assert pool.spawns == 2

    def test_idle_worker_killed_between_searches(
        self, genome, guides, budget, clean, pool
    ):
        before = set(multiprocessing.active_children())
        self.assert_clean(*run(genome, guides, budget, pool=pool), clean)
        workers = [c for c in multiprocessing.active_children() if c not in before]
        assert workers
        os.kill(workers[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while workers[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        hits, stats = run(genome, guides, budget, pool=pool)
        assert hits == clean
        assert stats["fault_tolerance"]["pool_rebuilds"] == 1
        assert pool.spawns == 2
        self.assert_clean(*run(genome, guides, budget, pool=pool), clean)

    def test_spawn_failure_still_degrades_to_serial(
        self, genome, guides, budget, clean, pool
    ):
        self.assert_clean(*run(genome, guides, budget, pool=pool), clean)
        hits, stats = run(
            genome, guides, budget, pool=pool, fault_plan=FaultPlan(pool_spawn_failures=1)
        )
        assert hits == clean
        assert stats["serial_fallback"] is True
        assert stats["pooled"] is False
        assert stats["fault_tolerance"]["pool_spawn_failures"] == 1
        self.assert_clean(*run(genome, guides, budget, pool=pool), clean)
        assert pool.spawns == 1
