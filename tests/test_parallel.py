"""Differential tests pinning ParallelSearch to the whole-genome paths.

The chunked executor's correctness story: for every genome, guide
set, budget, worker count (``workers=1`` is the in-process chunk
stream), chunk size, and scheduling order, the sharded search must
produce the *identical* hit list as

* the whole-genome kernels (``matcher.find_hits``, ``bitparallel``), and
* the independent ground-truth oracle (``NaiveSearcher``).

Property tests sweep randomised inputs (including adversarial chunk
lengths: barely above the overlap, prime-sized, longer than the
genome); deterministic regressions pin the chunk-boundary dedupe rule
(``hit.end <= chunk.overlap``) for the parallel merge, and the
degraded modes (``workers=1``, pool spawn failure) are exercised
explicitly.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    FaultPlan,
    NaiveSearcher,
    OffTargetSearch,
    ParallelSearch,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.core import bitparallel, matcher
from repro.core import parallel as parallel_module
from repro.core.parallel import ShardPool, ShardTask, _search_shard, merge_shards
from repro.errors import EngineError
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide

from differential import (
    DifferentialCase,
    adversarial_chunk_length as _chunk_length_for,
    assert_engines_agree,
)
from helpers import assert_equivalent_hits, hit_multiset, hit_spans

protospacer = st.text(alphabet="ACGT", min_size=10, max_size=14)
genome_text = st.text(alphabet="ACGTN", min_size=0, max_size=260)


# -- the differential property suite ------------------------------------------


@settings(max_examples=12, deadline=None)
@given(
    text=genome_text,
    protos=st.lists(protospacer, min_size=1, max_size=2),
    mismatches=st.integers(min_value=0, max_value=2),
    workers=st.integers(min_value=1, max_value=4),
    chunk_choice=st.integers(min_value=0, max_value=4),
)
def test_parallel_equals_streaming_equals_oracle(
    text, protos, mismatches, workers, chunk_choice
):
    # With workers=1 the parallel engine is the in-process chunk stream.
    genome = Sequence.from_text("chr", text)
    guides = tuple(Guide(f"g{i}", proto) for i, proto in enumerate(protos))
    budget = SearchBudget(mismatches=mismatches)
    overlap = max(g.site_length for g in guides) + budget.dna_bulges - 1
    case = DifferentialCase(
        genome=genome,
        guides=guides,
        budget=budget,
        chunk_length=_chunk_length_for(overlap, len(genome), chunk_choice),
        workers=workers,
    )
    assert_engines_agree(case, engines=("matcher", "bitparallel", "parallel"))


@settings(max_examples=8, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", min_size=0, max_size=160),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=1),
    rna=st.integers(min_value=0, max_value=1),
    dna=st.integers(min_value=0, max_value=1),
    workers=st.integers(min_value=1, max_value=3),
    chunk_choice=st.integers(min_value=0, max_value=4),
)
def test_parallel_equals_oracle_bulged(
    text, proto, mismatches, rna, dna, workers, chunk_choice
):
    genome = Sequence.from_text("chr", text)
    guides = [Guide("g", proto)]
    budget = SearchBudget(mismatches=mismatches, rna_bulges=rna, dna_bulges=dna)
    overlap = guides[0].site_length + budget.dna_bulges - 1
    chunk_length = _chunk_length_for(overlap, len(genome), chunk_choice)

    oracle = NaiveSearcher(budget).search(genome, guides)
    sharded = ParallelSearch(
        guides, budget, workers=workers, chunk_length=chunk_length
    ).search(genome)
    assert_equivalent_hits(oracle, sharded)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    order_seed=st.integers(min_value=0, max_value=10**6),
    chunk_choice=st.integers(min_value=0, max_value=4),
    workers=st.integers(min_value=1, max_value=3),
)
def test_merge_is_scheduling_order_independent(
    seed, order_seed, chunk_choice, workers
):
    # Execute the shards serially in a shuffled order and merge: the
    # result must be bit-identical to the canonical execution, which is
    # exactly the guarantee that makes pool completion order irrelevant.
    # The worker count only shapes the layout: with fewer chunks than
    # workers the 3-guide panel is split into batches too.
    genome = random_genome(600, seed=seed, name="chrOrder")
    guides = sample_guides_from_genome(genome, 3, seed=seed + 1)
    budget = SearchBudget(mismatches=2)
    chunk_length = _chunk_length_for(25, len(genome), chunk_choice)
    executor = ParallelSearch(
        guides, budget, workers=workers, chunk_length=chunk_length
    )
    tasks = executor.shard_tasks(genome)
    shuffled = list(tasks)
    random.Random(order_seed).shuffle(shuffled)
    merged = merge_shards(_search_shard(task) for task in shuffled)
    assert merged == executor.search(genome)
    assert merged == matcher.find_hits(genome, guides, budget)


@settings(max_examples=12, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", min_size=0, max_size=120),
    proto=protospacer,
    workers=st.integers(min_value=2, max_value=12),
)
def test_workers_exceeding_shard_count_is_invariant(text, proto, workers):
    # One guide and a chunk longer than the genome: at most one shard,
    # always fewer than the configured workers. The executor must run
    # it in-process and still match the oracle — including the empty
    # genome, where there are zero shards.
    genome = Sequence.from_text("chr", text)
    guides = [Guide("g", proto)]
    budget = SearchBudget(mismatches=1)
    overlap = guides[0].site_length + budget.dna_bulges - 1
    chunk_length = max(len(text), overlap + 1) + 5
    executor = ParallelSearch(
        guides, budget, workers=workers, chunk_length=chunk_length
    )
    hits, stats = executor.search_with_stats(genome)
    assert stats["num_shards"] <= 1
    assert stats["num_shards"] < workers
    if not text:
        assert stats["num_shards"] == 0
        assert hits == []
    assert_equivalent_hits(NaiveSearcher(budget).search(genome, guides), hits)


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    workers=st.integers(min_value=4, max_value=10),
)
def test_pool_sized_to_shards_when_workers_exceed_them(seed, workers):
    # One chunk with more workers than guides: three single-guide
    # batches, so exactly three shards, pooled with more workers
    # configured than shards to fill. The result must be identical to
    # the serial kernel regardless.
    genome = random_genome(1200, seed=seed, name="chrWide")
    guides = sample_guides_from_genome(genome, 3, seed=seed + 1)
    budget = SearchBudget(mismatches=1)
    executor = ParallelSearch(guides, budget, workers=workers, chunk_length=4096)
    hits, stats = executor.search_with_stats(genome)
    assert stats["num_shards"] == 3
    assert stats["num_shards"] < stats["workers"]
    assert_equivalent_hits(matcher.find_hits(genome, guides, budget), hits)


# -- chunk-boundary regressions (the `hit.end <= chunk.overlap` rule) ---------


class TestBoundaryStraddle:
    CHUNK = 200

    def _run(self, text, guide, workers=2):
        case = DifferentialCase(
            genome=Sequence.from_text("chrB", text),
            guides=(guide,),
            budget=SearchBudget(mismatches=0),
            chunk_length=self.CHUNK,
            workers=workers,
            label="boundary-straddle",
        )
        # The straddle genomes are crafted to stress the chunked paths,
        # so sweep the kernels too while we are here.
        return assert_engines_agree(case)

    def _genome_with_target_at(self, guide, position, total=600):
        target = guide.concrete_target()
        filler = random_genome(total, seed=7, name="f").text.replace("G", "A")
        # A/T-only filler cannot satisfy the NGG PAM, so the planted
        # target is the only hit and its position is fully controlled.
        filler = filler.replace("C", "T")
        return filler[:position] + target + filler[position + len(target):]

    def test_hit_straddles_chunk_boundary(self, guide):
        site = guide.site_length
        position = self.CHUNK - site // 2  # spans the first boundary
        hits = self._run(self._genome_with_target_at(guide, position), guide)
        assert [h.start for h in hits] == [position]

    def test_hit_wholly_inside_overlap_prefix(self, guide):
        # The site ends exactly at the first chunk's end, so chunk 2
        # sees it entirely inside its overlapped prefix (relative end
        # == overlap) and must drop it; chunk 1 reports it.
        site = guide.site_length
        position = self.CHUNK - site
        hits = self._run(self._genome_with_target_at(guide, position), guide)
        assert [h.start for h in hits] == [position]

    def test_hit_starting_at_position_zero_of_second_chunk(self, guide):
        # Chunk 2 starts at CHUNK - overlap; a site starting exactly
        # there has relative end == overlap + 1, one past the dedupe
        # threshold — the first span chunk 2 owns.
        overlap = guide.site_length - 1
        position = self.CHUNK - overlap
        hits = self._run(self._genome_with_target_at(guide, position), guide)
        assert [h.start for h in hits] == [position]

    def test_shard_filter_matches_streaming_rule(self, guide):
        # Every shard must apply exactly the overlapped-prefix rule:
        # union of shard hits == whole-genome hits, with no duplicates.
        site = guide.site_length
        text = self._genome_with_target_at(guide, self.CHUNK - site + 3, total=700)
        genome = Sequence.from_text("chrB", text)
        budget = SearchBudget(mismatches=1)
        executor = ParallelSearch(
            [guide], budget, workers=1, chunk_length=self.CHUNK
        )
        shard_hits = []
        for task in executor.shard_tasks(genome):
            shard_hits.extend(_search_shard(task).hits)
        whole = matcher.find_hits(genome, [guide], budget)
        assert hit_multiset(shard_hits) == hit_multiset(whole)
        keys = [h.key for h in shard_hits]
        assert len(keys) == len(set(keys))


# -- degraded modes -----------------------------------------------------------


class TestDegradedModes:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(40_000, seed=31, name="chrPool")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 2, seed=32)

    def test_workers_one_never_spawns_a_pool(self, genome, guides, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not be called
            raise AssertionError("workers=1 must not create a process pool")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", boom)
        executor = ParallelSearch(
            guides, SearchBudget(mismatches=2), workers=1, chunk_length=9000
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["pooled"] is False
        assert stats["serial_fallback"] is False
        assert hit_spans(hits) == hit_spans(
            matcher.find_hits(genome, guides, SearchBudget(mismatches=2))
        )

    def test_pool_spawn_failure_falls_back_to_serial(self, genome, guides, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no processes for you")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", broken)
        executor = ParallelSearch(
            guides, SearchBudget(mismatches=2), workers=4, chunk_length=9000
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["serial_fallback"] is True
        assert stats["pooled"] is False
        assert hits == matcher.find_hits(genome, guides, SearchBudget(mismatches=2))

    def test_single_shard_runs_in_process(self, genome, guides, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pooled")),
        )
        one_guide = guides[:1]  # one guide over one chunk -> one shard
        executor = ParallelSearch(
            one_guide, SearchBudget(mismatches=1), workers=4, chunk_length=1 << 20
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["num_shards"] == 1
        assert stats["pooled"] is False
        assert hit_spans(hits) == hit_spans(
            matcher.find_hits(genome, one_guide, SearchBudget(mismatches=1))
        )


# -- executor mechanics -------------------------------------------------------


class TestExecutor:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(60_000, seed=41, name="chrExec")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 4, seed=42)

    def test_pooled_run_identical_to_serial(self, genome, guides):
        budget = SearchBudget(mismatches=3)
        serial = ParallelSearch(guides, budget, workers=1, chunk_length=16_000)
        pooled = ParallelSearch(guides, budget, workers=2, chunk_length=16_000)
        assert pooled.search(genome) == serial.search(genome)

    def test_stats_shape(self, genome, guides):
        # 4 workers over 2 chunks: the panel is split into 2 batches.
        executor = ParallelSearch(
            guides, SearchBudget(mismatches=2), workers=4, chunk_length=32_000
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["workers"] == 4
        assert stats["num_chunks"] == 2
        assert stats["num_guide_batches"] == 2
        assert stats["num_shards"] == stats["num_chunks"] * stats["num_guide_batches"]
        assert len(stats["shards"]) == stats["num_shards"]
        assert all(shard["seconds"] >= 0 for shard in stats["shards"])
        assert sum(shard["hits"] for shard in stats["shards"]) >= len(hits)
        assert stats["wall_seconds"] > 0
        assert stats["overlap"] == executor.overlap

    def test_guide_batches_partition_the_library(self, guides):
        # One chunk (or none) and at least as many workers as guides:
        # one guide per batch.
        executor = ParallelSearch(guides, SearchBudget(), workers=len(guides))
        for num_chunks in (0, 1):
            batches = executor.guide_batches(num_chunks)
            assert [g for batch in batches for g in batch] == list(guides)
            assert all(len(batch) == 1 for batch in batches)

    @pytest.mark.parametrize(
        "workers,num_chunks,expected",
        [(2, 0, 2), (2, 1, 2), (2, 2, 1), (2, 7, 1), (3, 1, 3), (4, 2, 2), (8, 1, 4)],
    )
    def test_chunk_first_batches(self, guides, workers, num_chunks, expected):
        # The panel is split only as far as it takes to give every
        # worker a shard, and never into more batches than guides.
        executor = ParallelSearch(guides, SearchBudget(), workers=workers)
        batches = executor.guide_batches(num_chunks)
        assert len(batches) == expected
        assert [g for batch in batches for g in batch] == list(guides)

    def test_two_workers_split_the_genome_before_the_panel(self, genome, guides):
        budget = SearchBudget(mismatches=2)
        expected = matcher.find_hits(genome, guides, budget)
        many = ParallelSearch(guides, budget, workers=2, chunk_length=16_000)
        hits, stats = many.search_with_stats(genome)
        assert stats["num_chunks"] >= 2
        assert stats["num_guide_batches"] == 1
        assert stats["pooled"] is True
        assert hits == expected
        one = ParallelSearch(guides, budget, workers=2, chunk_length=1 << 20)
        hits, stats = one.search_with_stats(genome)
        assert stats["num_chunks"] == 1
        assert stats["num_guide_batches"] == 2
        assert stats["num_shards"] == 2
        assert hits == expected

    @pytest.mark.parametrize("chunk_length", [900, 16_000, 1 << 20])
    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_stats_describe_the_layout_that_ran(
        self, genome, guides, chunk_length, workers
    ):
        # None is the default (one worker per core); 3 workers over one
        # chunk split the 4-guide panel unevenly.
        executor = ParallelSearch(
            guides,
            SearchBudget(mismatches=1),
            workers=workers,
            chunk_length=chunk_length,
        )
        tasks = executor.shard_tasks(genome)
        _, stats = executor.search_with_stats(genome)
        assert stats["num_shards"] == len(tasks)
        assert stats["num_chunks"] == len({task.chunk_start for task in tasks})
        assert stats["num_guide_batches"] == len({task.guides for task in tasks})
        assert stats["num_shards"] == stats["num_chunks"] * stats["num_guide_batches"]

    def test_search_many(self, guides):
        chr1 = random_genome(20_000, seed=43, name="chr1")
        chr2 = random_genome(20_000, seed=44, name="chr2")
        budget = SearchBudget(mismatches=3)
        sharded = ParallelSearch(
            guides, budget, workers=2, chunk_length=7000
        ).search_many([chr1, chr2])
        whole = matcher.find_hits(chr1, guides, budget) + matcher.find_hits(
            chr2, guides, budget
        )
        assert hit_multiset(sharded) == hit_multiset(whole)

    def test_empty_genome(self, guides):
        executor = ParallelSearch(guides, SearchBudget(), workers=2)
        hits, stats = executor.search_with_stats(Sequence.from_text("e", ""))
        assert hits == []
        assert stats["num_shards"] == 0
        assert stats["num_chunks"] == stats["num_guide_batches"] == 0

    def test_search_many_constructs_one_executor(self, guides, monkeypatch):
        constructed = []

        class CountingExecutor(parallel_module.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                constructed.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", CountingExecutor)
        rounds = []
        execute_pooled = ParallelSearch._execute_pooled

        def counting_round(self, states, *args):
            rounds.append([state.task.shard_id for state in states])
            return execute_pooled(self, states, *args)

        monkeypatch.setattr(ParallelSearch, "_execute_pooled", counting_round)
        chromosomes = [
            random_genome(20_000, seed=seed, name=f"chr{seed}") for seed in (47, 48, 49)
        ]
        budget = SearchBudget(mismatches=3)
        executor = ParallelSearch(guides, budget, workers=2, chunk_length=7000)
        hits, per_sequence = executor.search_many_with_stats(chromosomes)
        assert len(constructed) == 1
        assert all(stats["pooled"] for stats in per_sequence)
        # One supervised round, shard ids in (sequence, chunk, batch) order.
        assert [stats["sequence"] for stats in per_sequence] == [c.name for c in chromosomes]
        ids = [row["shard"] for stats in per_sequence for row in stats["shards"]]
        assert rounds == [ids] and ids == list(range(len(ids)))
        assert [row["shard"] for row in per_sequence[0]["shards"]] == [
            task.shard_id for task in executor.shard_tasks(chromosomes[0])
        ]
        whole = [h for c in chromosomes for h in matcher.find_hits(c, guides, budget)]
        assert hit_multiset(hits) == hit_multiset(whole)

    def test_task_codes_are_views_of_the_genome(self):
        genome = random_genome(6000, seed=45, name="chrView")
        guides = sample_guides_from_genome(genome, 2, seed=46)
        budget = SearchBudget(mismatches=2)
        executor = ParallelSearch(guides, budget, workers=2, chunk_length=1500)
        tasks = executor.shard_tasks(genome)
        assert len(tasks) > 2
        for task in tasks:
            assert isinstance(task, ShardTask)
            assert np.shares_memory(task.codes, genome.codes)
            assert task.chunk_length == len(task.codes)
        # Pickled to pool workers, the views still scan to the oracle.
        hits, stats = executor.search_with_stats(genome)
        assert stats["pooled"] is True
        assert hits == NaiveSearcher(budget).search(genome, guides)

    def test_in_process_run_compiles_each_batch_panel_once(
        self, genome, guides, monkeypatch
    ):
        # 4 workers over 3 chunks give 2 guide batches; the failed pool
        # spawn runs every shard in-process.
        compiled = []

        class CountingPanel(bitparallel.BitParallelPanel):
            def __init__(self, panel_guides, budget):
                compiled.append(tuple(panel_guides))
                super().__init__(panel_guides, budget)

        monkeypatch.setattr(bitparallel, "BitParallelPanel", CountingPanel)
        budget = SearchBudget(mismatches=2)
        executor = ParallelSearch(
            guides,
            budget,
            workers=4,
            chunk_length=21_000,
            fault_plan=FaultPlan(pool_spawn_failures=1),
        )
        hits, stats = executor.search_with_stats(genome)
        assert stats["serial_fallback"] is True
        assert stats["num_chunks"] == 3
        assert stats["num_guide_batches"] == 2
        assert compiled == executor.guide_batches(stats["num_chunks"])
        assert hits == matcher.find_hits(genome, guides, budget)

    def test_validation(self, guides):
        with pytest.raises(EngineError):
            ParallelSearch([], SearchBudget())
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), workers=0)
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), workers=2.5)
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), chunk_length=5)


class TestShardPool:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(30_000, seed=61, name="chrPool")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 3, seed=62)

    def test_spawns_on_first_pooled_dispatch_and_is_reused(self, genome, guides):
        budget = SearchBudget(mismatches=2)
        expected = matcher.find_hits(genome, guides, budget)
        pool = ShardPool(2)
        try:
            assert pool.spawns == 0
            # A one-shard search (one guide over one chunk) runs
            # in-process and leaves the pool cold.
            single = ParallelSearch(
                guides[:1], budget, workers=2, chunk_length=1 << 20, pool=pool
            )
            assert single.search(genome) == matcher.find_hits(
                genome, guides[:1], budget
            )
            assert pool.spawns == 0
            for _ in range(3):
                executor = ParallelSearch(
                    guides, budget, workers=2, chunk_length=8000, pool=pool
                )
                hits, stats = executor.search_with_stats(genome)
                assert hits == expected
                assert stats["pooled"] is True
            assert pool.spawns == 1
        finally:
            pool.close()

    def test_retire_then_respawn(self):
        pool = ShardPool(1)
        try:
            first = pool.executor()
            assert pool.executor() is first
            pool.retire(first)
            second = pool.executor()
            assert second is not first
            assert pool.spawns == 2
        finally:
            pool.close()

    def test_closed_pool_refuses_dispatch(self):
        pool = ShardPool(2)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(EngineError, match="closed"):
            pool.executor()
        assert pool.spawns == 0

    def test_validation(self, guides):
        with pytest.raises(EngineError):
            ShardPool(0)
        with pytest.raises(EngineError):
            ParallelSearch(guides, SearchBudget(), pool="a pool")


# -- public API wiring --------------------------------------------------------


class TestOffTargetSearchWorkers:
    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(50_000, seed=51, name="chrApi")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 3, seed=52)

    def test_parallel_run_matches_serial_run(self, genome, guides):
        budget = SearchBudget(mismatches=2)
        serial = OffTargetSearch(guides, budget).run(genome, engine="fpga")
        pooled = OffTargetSearch(guides, budget, workers=2, chunk_length=16_000).run(
            genome, engine="fpga"
        )
        assert pooled.hits == serial.hits
        assert pooled.stats["parallel"]["workers"] == 2
        # Modeled platform time does not depend on the host-side path.
        assert pooled.modeled_seconds == serial.modeled_seconds

    def test_workers_validation(self, guides):
        with pytest.raises(EngineError):
            OffTargetSearch(guides, workers=0)

    def test_baselines_still_run(self, genome, guides):
        report = OffTargetSearch(
            guides, SearchBudget(mismatches=2), workers=2
        ).run(genome, engine="cas-offinder")
        assert report.engine == "cas-offinder"
