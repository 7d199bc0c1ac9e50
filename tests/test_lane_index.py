"""The lane index: lanes and lane code boards found once per genome block.

A :class:`~repro.core.bitparallel.LaneIndex` over a fixed genome keeps
each (block, lane layout)'s lanes, per-delta PAM boards and code boards
across panels. Reuse is exact only if a kept layout is never served for
the wrong block, budget shape or PAM layout, so these tests scan panels
in orders that leave other layouts in the index and hold every answer
to the naive oracle and to a fresh index. They also pin the retained-
byte bound and the index's lifetime (it dies with its session).

Pool workers inherit a kept index's sequences at the fork and keep an
index of their own over them. The resident-pool tests pin what ships
to a worker, the workers' own reuse, and the hazards of inheriting an
index: a token that names another genome, a lock held at the fork, and
a worker that missed its token (retried, then rescued in-process, so
right answers alone would not show it: every pooled run here asserts
no shard failure).
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import sys
import threading
import time
import weakref

import pytest

from repro import (
    NaiveSearcher,
    OffTargetSearch,
    OffTargetService,
    ParallelSearch,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.core import bitparallel, parallel
from repro.core.bitparallel import LANE_INDEX_BYTES_PER_SYMBOL, LaneIndex
from repro.core.parallel import ShardPool
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide

from differential import BULGED_GRID_SPEC, GridSpec, differential_grid


def oracle(genome, guides, budget):
    return NaiveSearcher(budget).search(genome, list(guides))


def other_layout_panel(genome: Sequence, seed: int) -> tuple[Guide, ...]:
    """Guides of six lane layouts: NGG and NAG, 5' TTTV, an all-N PAM, 16/24 nt."""
    donor = genome if len(genome) >= 500 else random_genome(800, seed=seed)
    shapes = (
        ("ngg", "NGG", 20),
        ("nag", "NAG", 20),
        ("tttv", "TTTV", 20),
        ("anyN", "N", 20),
        ("short", "NGG", 16),
        ("long", "NGG", 24),
    )
    guides: list[Guide] = []
    for index, (prefix, pam, length) in enumerate(shapes):
        guides.extend(
            sample_guides_from_genome(
                donor,
                1,
                pam=pam,
                protospacer_length=length,
                seed=seed + index,
                name_prefix=prefix,
            )
        )
    return tuple(guides)


#: Budgets that put other layouts in the index: mismatch-only and bulged.
OTHER_BUDGETS = (SearchBudget(mismatches=1), SearchBudget(1, 1, 1), SearchBudget(0, 2, 1))


def indexed_search(case, index):
    return ParallelSearch(
        case.guides,
        case.budget,
        workers=1,
        chunk_length=case.resolved_chunk_length(),
        lane_index=index,
    ).search(case.genome)


def pooled_search(case, index, pool):
    """*case* through *pool*'s workers with *index*: hits and stats."""
    return ParallelSearch(
        case.guides,
        case.budget,
        workers=2,
        chunk_length=case.resolved_chunk_length(),
        pool=pool,
        lane_index=index,
    ).search_with_stats(case.genome)


def run_grid_with_shared_index(spec: GridSpec, pool: ShardPool) -> None:
    """Every case of *spec* through one index per genome that other
    layouts pass through between cases; each answer equals a fresh
    index's and the oracle's, in-process and through *pool*'s workers.

    Cases run grouped by genome, budget shape and chunk length, so a
    layout's blocks are still kept when the next case reads them.
    """
    cases = sorted(
        differential_grid(spec),
        key=lambda case: (
            case.genome.name,
            case.budget.rna_bulges,
            case.budget.dna_bulges,
            case.resolved_chunk_length(),
            case.budget.mismatches,
            len(case.guides),
        ),
    )
    indexes: dict[str, LaneIndex] = {}
    expected: dict[tuple, list] = {}
    reused = 0
    for number, case in enumerate(cases):
        genome = case.genome
        index = indexes.setdefault(genome.name, LaneIndex([genome]))
        if number % 6 == 0 and len(genome):
            # Leave other layouts (other PAMs, lengths and budget
            # shapes) in the index between the grid's own scans.
            panel = other_layout_panel(genome, seed=number)
            budget = OTHER_BUDGETS[number % len(OTHER_BUDGETS)]
            chunk = max(g.site_length for g in panel) + budget.dna_bulges + 1000
            search = ParallelSearch(panel, budget, workers=1, chunk_length=chunk)
            assert search.search(genome) == ParallelSearch(
                panel, budget, workers=1, chunk_length=chunk, lane_index=index
            ).search(genome), case.describe()
        key = (genome.name, case.guides, case.budget)
        if key not in expected:
            expected[key] = oracle(genome, case.guides, case.budget)
        assert indexed_search(case, LaneIndex([genome])) == expected[key], case.describe()
        before = index.stats()["reuses"]
        assert indexed_search(case, index) == expected[key], case.describe()
        reused += index.stats()["reuses"] - before
        stats = index.stats()
        assert stats["bytes"] <= stats["capacity_bytes"], case.describe()
        hits, run = pooled_search(case, index, pool)
        assert hits == expected[key], case.describe()
        assert run["fault_tolerance"]["failures"] == {}, case.describe()
    assert reused > 0


@pytest.fixture(scope="module")
def shard_pool():
    """One pool for the module, as a serving scheduler keeps one."""
    pool = ShardPool(2)
    yield pool
    pool.close()


class TestReuseIsExact:
    def test_differential_grid(self, shard_pool):
        run_grid_with_shared_index(GridSpec(), shard_pool)

    def test_bulged_grid(self, shard_pool):
        run_grid_with_shared_index(BULGED_GRID_SPEC, shard_pool)

    @pytest.mark.parametrize("budget", OTHER_BUDGETS, ids=["mm1", "r1d1", "r2d1"])
    def test_other_layouts_reused_after_each_other(self, budget):
        # Scan each layout's panel, then again newest first, so the
        # second round reads kept layouts (the all-N one is rebuilt: it
        # is over the bound) with the others still in the index. The
        # TTTV pass comes last: it is small enough to stay kept under
        # every budget shape.
        genome = random_genome(2000, seed=71, name="chrLayouts")
        ngg, nag, tttv, any_n, short, long = other_layout_panel(genome, seed=5)
        index = LaneIndex([genome])
        passes = [(ngg, nag), (any_n,), (short, long), (tttv,)]
        expected = {guides: oracle(genome, guides, budget) for guides in passes}
        for guides in passes + passes[::-1]:
            got = bitparallel.BitParallelPanel(guides, budget).find_hits(genome, index)
            assert got == expected[guides]
        stats = index.stats()
        assert stats["reuses"] > 0
        assert stats["bytes"] <= stats["capacity_bytes"]

    def test_same_layout_different_budget_shapes_do_not_share(self):
        # The delta range is part of the layout: a bulged budget's lanes
        # are a superset of the mismatch-only ones.
        genome = random_genome(3000, seed=72, name="chrShapes")
        guides = sample_guides_from_genome(genome, 2, seed=73)
        index = LaneIndex([genome])
        for budget in (SearchBudget(2), SearchBudget(1, 1, 0), SearchBudget(2)):
            panel = bitparallel.BitParallelPanel(guides, budget)
            assert panel.find_hits(genome, index) == oracle(genome, guides, budget)
        assert index.stats()["layouts"] == 4  # two budget shapes x two strands
        assert index.stats()["reuses"] == 2

    def test_a_genome_outside_the_index_is_not_kept(self):
        # Same name and length, other content: the index keys blocks by
        # where they lie in its own sequences, never by name.
        genome = random_genome(3000, seed=74, name="chr1")
        impostor = random_genome(3000, seed=75, name="chr1")
        guides = sample_guides_from_genome(genome, 2, seed=76)
        budget = SearchBudget(3)
        index = LaneIndex([genome])
        panel = bitparallel.BitParallelPanel(guides, budget)
        assert panel.find_hits(genome, index) == oracle(genome, guides, budget)
        kept = index.stats()
        assert panel.find_hits(impostor, index) == oracle(impostor, guides, budget)
        assert index.stats() == kept

    def test_one_shot_scan_keeps_nothing(self):
        genome = random_genome(3000, seed=77, name="chrOnce")
        guides = sample_guides_from_genome(genome, 2, seed=78)
        index = LaneIndex()
        bitparallel.BitParallelPanel(guides, SearchBudget(2)).find_hits(genome, index)
        assert index.stats()["layouts"] == index.stats()["bytes"] == 0

    def test_pool_workers_keep_none(self):
        # Pool workers read lanes through indexes of their own; the
        # parent's index keeps none of their layouts.
        genome = random_genome(6000, seed=79, name="chrPool")
        guides = sample_guides_from_genome(genome, 2, seed=80)
        budget = SearchBudget(2)
        index = LaneIndex([genome])
        hits, stats = ParallelSearch(
            guides, budget, workers=2, chunk_length=1500, lane_index=index
        ).search_with_stats(genome)
        assert stats["pooled"] is True
        assert hits == oracle(genome, guides, budget)
        assert index.stats()["builds"] == index.stats()["layouts"] == 0


def worker_index_stats(token: int) -> tuple[int, dict | None]:
    """Run in a pool worker: its pid and its own index's stats for
    *token* (``None`` before first use). It holds the worker a moment,
    so probes submitted together land on different workers."""
    time.sleep(0.2)
    index = parallel._worker_indexes.get(token)
    return os.getpid(), None if index is None else index.stats()


def probe_workers(pool: ShardPool, token: int) -> dict[int, dict | None]:
    """Every worker's own index stats for *token*, by pid."""
    executor = pool.executor()
    seen: dict[int, dict | None] = {}
    for _ in range(10):
        futures = [executor.submit(worker_index_stats, token) for _ in range(2)]
        seen.update(future.result(timeout=30) for future in futures)
        if len(seen) == 2:
            break
    assert len(seen) == 2
    return seen


class TestResidentPool:
    """Pool workers scan the chunks of a kept index they inherited."""

    def test_resident_shards_ship_no_genome_bytes(self, monkeypatch):
        shipped: list[tuple[str, int]] = []

        class RecordingExecutor(parallel.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                shipped.append((fn.__name__, len(pickle.dumps(args))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingExecutor)
        genome = random_genome(24_000, seed=101, name="chrShip")
        guides = sample_guides_from_genome(genome, 2, seed=102)
        budget = SearchBudget(2)
        expected = oracle(genome, guides, budget)
        index = LaneIndex([genome])
        sizes = {}
        for chunk_length in (2000, 8000):
            for kept in (index, None):
                shipped.clear()
                hits, stats = ParallelSearch(
                    guides, budget, workers=2, chunk_length=chunk_length, lane_index=kept
                ).search_with_stats(genome)
                assert hits == expected
                assert stats["fault_tolerance"]["failures"] == {}
                entries = {name for name, _ in shipped}
                assert entries == {"_run_resident" if kept else "_run_shard"}
                sizes[chunk_length, kept is not None] = max(size for _, size in shipped)
        # A resident payload is a place and a task without codes: it does
        # not grow with the chunk. A one-shot search still ships codes.
        assert sizes[8000, True] <= sizes[2000, True] + 8 < 2000
        assert sizes[2000, False] > 2000 and sizes[8000, False] > 8000

    def test_pool_workers_reuse_their_own_index(self):
        # One chunk, two guide batches: two searches run its layouts
        # four times on two workers, so one worker reads them twice.
        genome = random_genome(6000, seed=103, name="chrReuse")
        guides = sample_guides_from_genome(genome, 2, seed=104)
        budget = SearchBudget(2)
        expected = oracle(genome, guides, budget)
        index = LaneIndex([genome])
        pool = ShardPool(2)
        try:
            for _ in range(2):
                hits, stats = ParallelSearch(
                    guides, budget, workers=2, pool=pool, lane_index=index
                ).search_with_stats(genome)
                assert stats["num_shards"] == 2 and stats["pooled"] is True
                assert hits == expected
                assert stats["fault_tolerance"]["failures"] == {}
            own = [stats for stats in probe_workers(pool, index.token).values() if stats]
            assert any(stats["reuses"] > 0 for stats in own)
            assert all(stats["bytes"] <= stats["capacity_bytes"] for stats in own)
            assert pool.spawns == 1
        finally:
            pool.close()
        assert index.stats()["builds"] == index.stats()["layouts"] == 0

    def test_tokens_are_never_reused(self):
        # Index A over genome X dies; index B over a genome Y of the same
        # shape must not pass for it with workers that inherited A.
        genome_x = random_genome(6000, seed=105, name="chrTwin")
        genome_y = random_genome(6000, seed=106, name="chrTwin")
        guides = list(sample_guides_from_genome(genome_x, 2, seed=107, name_prefix="x"))
        guides += sample_guides_from_genome(genome_y, 2, seed=108, name_prefix="y")
        budget = SearchBudget(2)
        pool = ShardPool(2)
        try:
            index_a = LaneIndex([genome_x])
            token_a = index_a.token
            hits, _ = ParallelSearch(
                guides, budget, workers=2, chunk_length=1500, pool=pool, lane_index=index_a
            ).search_with_stats(genome_x)
            assert hits == oracle(genome_x, guides, budget)
            del index_a
            gc.collect()
            assert bitparallel.kept_index(token_a) is None
            index_b = LaneIndex([genome_y])
            assert index_b.token != token_a
            hits, stats = ParallelSearch(
                guides, budget, workers=2, chunk_length=1500, pool=pool, lane_index=index_b
            ).search_with_stats(genome_y)
            assert hits == oracle(genome_y, guides, budget)
            assert stats["fault_tolerance"]["failures"] == {}
            assert pool.spawns == 2
        finally:
            pool.close()

    def test_a_lock_held_at_the_fork_blocks_no_worker(self):
        # Another thread holds the index's lock (as a stats op does)
        # while the search forks the pool: in the workers that lock stays
        # held, so a worker scanning through the inherited index object
        # would stall until its shard timed out.
        genome = random_genome(20_000, seed=109, name="chrLocked")
        guides = sample_guides_from_genome(genome, 3, seed=110)
        budget = SearchBudget(2)
        index = LaneIndex([genome])
        held, release = threading.Event(), threading.Event()

        def hold() -> None:
            with index._lock:
                held.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold)
        holder.start()
        pool = ShardPool(2)
        try:
            assert held.wait(timeout=10)
            hits, stats = ParallelSearch(
                guides,
                budget,
                workers=2,
                chunk_length=5000,
                shard_timeout=10,
                pool=pool,
                lane_index=index,
            ).search_with_stats(genome)
        finally:
            release.set()
            holder.join(timeout=30)
            pool.close()
        assert stats["pooled"] is True
        assert hits == oracle(genome, guides, budget)
        assert stats["fault_tolerance"]["failures"] == {}


class TestConcurrentScans:
    def test_threads_sharing_one_index_keep_its_books(self):
        # Eight threads (more than cores) scan panels of several layouts
        # through one small index, so inserts, reuses and evictions
        # interleave; a lost update would break the byte count.
        genome = random_genome(3000, seed=95, name="chrThreads")
        ngg, nag, tttv, _, short, long = other_layout_panel(genome, seed=96)
        panels = [(ngg, nag), (tttv,), (short,), (long, ngg)]
        budgets = (SearchBudget(2), SearchBudget(1, 1, 1))
        expected = {
            (guides, budget): bitparallel.find_hits(genome, guides, budget)
            for guides in panels
            for budget in budgets
        }
        index = LaneIndex([genome])
        failures: list[str] = []

        def scan(worker: int) -> None:
            for step in range(12):
                guides = panels[(worker + step) % len(panels)]
                budget = budgets[(worker * step) % len(budgets)]
                panel = bitparallel.BitParallelPanel(guides, budget)
                if panel.find_hits(genome, index) != expected[(guides, budget)]:
                    failures.append(f"worker {worker} step {step}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=scan, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        stats = index.stats()
        kept = list(index._kept.values())
        assert stats["bytes"] == sum(lanes.nbytes for lanes in kept)
        assert stats["bytes"] <= stats["capacity_bytes"]
        assert stats["builds"] + stats["reuses"] > 0


class TestServedSessions:
    def test_interleaved_queries_over_two_sessions(self):
        # Both sessions name their sequences chr1/chr2 with different
        # content; "cut" is longer than the chunk, so its index holds
        # several blocks per layout. Each panel mixes guides cut from
        # both sessions, so every answer has hits to get wrong.
        whole = [
            random_genome(2500, seed=81, name="chr1"),
            random_genome(1800, seed=82, name="chr2"),
        ]
        cut = [
            random_genome(9000, seed=83, name="chr1"),
            random_genome(2500, seed=84, name="chr2"),
        ]
        guides = list(sample_guides_from_genome(whole[0], 3, seed=85, name_prefix="w"))
        guides += sample_guides_from_genome(cut[0], 3, seed=86, name_prefix="c")
        guides += other_layout_panel(cut[1], seed=87)[1:4]
        plan = []
        for step, (budget, session) in enumerate(
            itertools.product(
                (SearchBudget(2), SearchBudget(1, 1, 1), SearchBudget(3)), ("whole", "cut")
            )
        ):
            start = (2 * step) % 7
            plan.append((session, budget, tuple(guides[start : start + 3])))
        genomes = {"whole": whole, "cut": cut}
        with OffTargetService(background=False, chunk_length=3000) as service:
            for session, genome in genomes.items():
                service.add_genome(session, genome)
            for _round in range(2):
                futures = [
                    service.query_async(panel, budget, session_id=session)
                    for session, budget, panel in plan
                ]
                service.flush()
                for (session, budget, panel), future in zip(plan, futures):
                    expected = OffTargetSearch(panel, budget).run(genomes[session]).hits
                    assert future.result().hits == expected, (session, budget)
                for session, budget, panel in plan:
                    got = service.query(panel, budget, session_id=session).hits
                    assert got == OffTargetSearch(panel, budget).run(genomes[session]).hits
            lanes = [service.sessions.get(session).lanes.stats() for session in genomes]
        for stats in lanes:
            assert stats["builds"] > 0 and stats["reuses"] > 0
            assert stats["bytes"] <= stats["capacity_bytes"]

    def test_removing_a_session_frees_its_index(self):
        genome = random_genome(3000, seed=88, name="chrGone")
        guides = sample_guides_from_genome(genome, 2, seed=89)
        with OffTargetService(background=False) as service:
            service.add_genome("gone", genome)
            service.query(guides, SearchBudget(2), session_id="gone")
            index = weakref.ref(service.sessions.get("gone").lanes)
            assert index().stats()["layouts"] > 0
            service.sessions.remove("gone")
            gc.collect()
            assert index() is None


class TestRetainedBytes:
    def test_all_n_layout_over_one_mbp_stays_under_the_bound(self):
        # An all-N PAM keeps every start as a lane: about 18 bytes per
        # symbol, over the bound, so it is built per scan and not kept.
        genome = random_genome(1_000_000, seed=90, name="chrAllN")
        (any_n,) = sample_guides_from_genome(
            genome, 1, pam="N", seed=91, name_prefix="anyN"
        )
        (ngg,) = sample_guides_from_genome(genome, 1, seed=92)
        budget = SearchBudget(1)
        index = LaneIndex([genome])
        panel = bitparallel.BitParallelPanel([any_n, ngg], budget)
        hits = panel.find_hits(genome, index)
        assert hits == bitparallel.find_hits(genome, [any_n, ngg], budget)
        assert {hit.guide_name for hit in hits} == {any_n.name, ngg.name}
        stats = index.stats()
        assert stats["layouts"] == 2  # the two NGG strands, not the all-N ones
        assert stats["bytes"] <= LANE_INDEX_BYTES_PER_SYMBOL * len(genome)

    def test_least_recently_used_layouts_are_evicted(self):
        # Every layout here fits the bound on its own; together they do
        # not, so the index evicts while never holding more than it may.
        genome = random_genome(2000, seed=93, name="chrEvict")
        index = LaneIndex([genome])
        capacity = index.stats()["capacity_bytes"]
        assert capacity == LANE_INDEX_BYTES_PER_SYMBOL * len(genome)
        panel = [g for g in other_layout_panel(genome, seed=94) if g.pam.pattern != "N"]
        for budget in (SearchBudget(2), SearchBudget(1, 1, 1), SearchBudget(0, 2, 2)):
            for guide in panel:
                got = bitparallel.BitParallelPanel([guide], budget).find_hits(genome, index)
                assert got == bitparallel.find_hits(genome, [guide], budget)
                assert index.stats()["bytes"] <= capacity
        stats = index.stats()
        assert 0 < stats["layouts"] < stats["builds"]


# -- nightly resident-pool soak (slow; excluded from the per-push run) ---------


@pytest.mark.slow
class TestResidentPoolSoak:
    """Seeded ~1 Mbp genomes through one long-lived pool and kept index.

    Every seed's genome gets one kept index, and three panels that mix
    NGG, NRG and TTTV guides search it through one ``ShardPool(2)`` that
    outlives every seed: each genome's first search forks the workers
    once more to inherit it, and the later panels read the layouts the
    workers kept. Every fifth seed runs a bulged budget. Each search
    must equal the whole-genome kernel with no shard failure, and every
    failure message carries its seed for one-line replay.
    """

    GENOME_LENGTH = 1_000_000
    CHUNK = 1 << 18
    PAMS = ("NGG", "NRG", "TTTV")
    BULGE_SHAPES = ((1, 0), (0, 1), (1, 1))

    @pytest.fixture(scope="class")
    def soak_pool(self):
        pool = ShardPool(2)
        yield pool
        pool.close()

    @classmethod
    def budget_for_seed(cls, seed: int) -> SearchBudget:
        if seed % 5:
            return SearchBudget(mismatches=3)
        rna, dna = cls.BULGE_SHAPES[(seed // 5) % len(cls.BULGE_SHAPES)]
        return SearchBudget(mismatches=1, rna_bulges=rna, dna_bulges=dna)

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_resident_sweep(self, seed, soak_pool):
        genome = random_genome(self.GENOME_LENGTH, seed=seed, name=f"chrResident{seed}")
        index = LaneIndex([genome])
        budget = self.budget_for_seed(seed)
        spawns = soak_pool.spawns
        for panel in range(3):
            guides = [
                guide
                for number, pam in enumerate(self.PAMS)
                for guide in sample_guides_from_genome(
                    genome,
                    2,
                    pam=pam,
                    seed=seed * 100 + panel * 10 + number,
                    name_prefix=f"{pam.lower()}{panel}",
                )
            ]
            hits, stats = ParallelSearch(
                guides,
                budget,
                workers=2,
                chunk_length=self.CHUNK,
                pool=soak_pool,
                lane_index=index,
            ).search_with_stats(genome)
            replay = f"(replay: test_seeded_resident_sweep[{seed}])"
            assert hits == bitparallel.find_hits(genome, guides, budget), (
                f"resident soak seed {seed} panel {panel}: hits diverge under "
                f"{budget} {replay}"
            )
            assert stats["fault_tolerance"]["failures"] == {}, (
                f"resident soak seed {seed} panel {panel}: shard failures "
                f"{stats['fault_tolerance']['failures']} {replay}"
            )
        assert soak_pool.spawns == spawns + 1, f"resident soak seed {seed} {replay}"
