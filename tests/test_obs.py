"""Unit and integration tests for the observability layer.

:mod:`repro.obs` is the single instrumentation primitive threaded
through the pipeline (engines, the chunked executor, and the top-level
:class:`OffTargetSearch`). These tests pin the ``Metrics`` semantics —
counters, timer distributions, span nesting, JSON snapshots, and
cross-process merging — and then check each pipeline layer actually
emits the signals the CLI's ``--stats-json`` and the analysis modules
consume.
"""

import json

import pytest

from repro import (
    Metrics,
    OffTargetSearch,
    ParallelSearch,
    SearchBudget,
    compile_library,
    random_genome,
    sample_guides_from_genome,
)
from repro.engines.base import get_engine
from repro.obs import TimerStat, merge_snapshots


class TestCounters:
    def test_incr_creates_and_accumulates(self):
        metrics = Metrics()
        assert metrics.counter("events") == 0
        metrics.incr("events")
        metrics.incr("events", 4)
        assert metrics.counter("events") == 5

    def test_rate_scales_by_per(self):
        metrics = Metrics()
        metrics.incr("hits", 3)
        metrics.incr("positions", 1_500_000)
        assert metrics.rate("hits", "positions", per=1e6) == pytest.approx(2.0)

    def test_rate_with_empty_denominator_is_zero(self):
        metrics = Metrics()
        metrics.incr("hits", 3)
        assert metrics.rate("hits", "positions") == 0.0


class TestGauges:
    def test_gauge_records_last_observation(self):
        metrics = Metrics()
        assert metrics.gauge_value("queue_depth") == 0.0
        metrics.gauge("queue_depth", 4)
        metrics.gauge("queue_depth", 2)
        assert metrics.gauge_value("queue_depth") == 2

    def test_gauge_add_moves_the_level(self):
        metrics = Metrics()
        metrics.gauge("inflight", 3)
        assert metrics.gauge_add("inflight", 2) == 5
        assert metrics.gauge_add("inflight", -4) == 1
        assert metrics.gauge_value("inflight") == 1

    def test_gauge_add_starts_from_zero(self):
        metrics = Metrics()
        assert metrics.gauge_add("fresh", 2.5) == 2.5

    def test_snapshot_carries_gauges(self):
        metrics = Metrics()
        metrics.gauge("depth", 7)
        snapshot = json.loads(json.dumps(metrics.snapshot()))
        assert snapshot["gauges"] == {"depth": 7}

    def test_merge_gauges_last_observation_wins(self):
        a, b = Metrics(), Metrics()
        a.gauge("depth", 9)
        a.gauge("only_a", 1)
        b.gauge("depth", 3)
        a.merge(b.snapshot())
        merged = a.snapshot()["gauges"]
        assert merged["depth"] == 3  # incoming level replaces, never sums
        assert merged["only_a"] == 1

    def test_merge_snapshots_helper_carries_gauges(self):
        a, b = Metrics(), Metrics()
        a.gauge("depth", 9)
        b.gauge("depth", 3)
        combined = merge_snapshots(a.snapshot(), b.snapshot())
        assert combined["gauges"]["depth"] == 3


class TestTimers:
    def test_observe_tracks_distribution(self):
        metrics = Metrics()
        for seconds in (0.5, 0.1, 0.4):
            metrics.observe("kernel", seconds)
        stat = metrics.snapshot()["timers"]["kernel"]
        assert stat["count"] == 3
        assert stat["total"] == pytest.approx(1.0)
        assert stat["min"] == pytest.approx(0.1)
        assert stat["max"] == pytest.approx(0.5)
        assert stat["mean"] == pytest.approx(1.0 / 3)

    def test_timer_context_records_elapsed(self):
        metrics = Metrics()
        with metrics.timer("block"):
            pass
        stat = metrics.snapshot()["timers"]["block"]
        assert stat["count"] == 1
        assert stat["total"] >= 0.0

    def test_empty_timerstat_reports_zeroes(self):
        stat = TimerStat()
        assert stat.as_dict() == {
            "count": 0,
            "total": 0.0,
            "mean": 0.0,
            "min": 0.0,
            "max": 0.0,
        }


class TestSpans:
    def test_nesting_depth_and_start_order(self):
        metrics = Metrics()
        with metrics.span("outer"):
            with metrics.span("inner"):
                pass
            with metrics.span("sibling"):
                pass
        spans = metrics.snapshot()["spans"]
        assert [span["name"] for span in spans] == ["outer", "inner", "sibling"]
        assert [span["depth"] for span in spans] == [0, 1, 1]
        assert all(span["seconds"] >= 0.0 for span in spans)
        assert spans[0]["start"] <= spans[1]["start"] <= spans[2]["start"]

    def test_span_attrs_are_preserved(self):
        metrics = Metrics()
        with metrics.span("search", sequence="chr1", workers=2):
            pass
        span = metrics.snapshot()["spans"][0]
        assert span["sequence"] == "chr1"
        assert span["workers"] == 2

    def test_span_recorded_even_on_exception(self):
        metrics = Metrics()
        with pytest.raises(ValueError):
            with metrics.span("doomed"):
                raise ValueError("boom")
        assert [s["name"] for s in metrics.snapshot()["spans"]] == ["doomed"]


class TestSnapshotAndMerge:
    def test_snapshot_is_json_serialisable(self):
        metrics = Metrics()
        metrics.incr("n", 2)
        metrics.observe("t", 0.25)
        with metrics.span("stage", label="x"):
            pass
        parsed = json.loads(json.dumps(metrics.snapshot()))
        assert parsed["counters"]["n"] == 2
        assert parsed["timers"]["t"]["count"] == 1
        assert parsed["spans"][0]["name"] == "stage"

    def test_merge_adds_counters_and_combines_timers(self):
        a, b = Metrics(), Metrics()
        a.incr("n", 2)
        a.observe("t", 0.1)
        b.incr("n", 3)
        b.observe("t", 0.4)
        with b.span("worker"):
            pass
        a.merge(b.snapshot())
        merged = a.snapshot()
        assert merged["counters"]["n"] == 5
        assert merged["timers"]["t"]["count"] == 2
        assert merged["timers"]["t"]["min"] == pytest.approx(0.1)
        assert merged["timers"]["t"]["max"] == pytest.approx(0.4)
        assert [s["name"] for s in merged["spans"]] == ["worker"]

    def test_merge_empty_snapshot_is_noop(self):
        metrics = Metrics()
        metrics.incr("n")
        metrics.merge({})
        assert metrics.snapshot()["counters"] == {"n": 1}

    def test_merge_snapshots_helper(self):
        a, b = Metrics(), Metrics()
        a.incr("n", 1)
        b.incr("n", 2)
        combined = merge_snapshots(a.snapshot(), b.snapshot())
        assert combined["counters"]["n"] == 3


@pytest.fixture(scope="module")
def genome():
    return random_genome(4000, seed=61, name="chrObs")


@pytest.fixture(scope="module")
def guides(genome):
    return sample_guides_from_genome(genome, 2, seed=62)


@pytest.fixture(scope="module")
def budget():
    return SearchBudget(mismatches=1)


class TestEngineInstrumentation:
    def test_engine_search_emits_obs(self, genome, guides, budget):
        compiled = compile_library(guides, budget)
        result = get_engine("hyperscan").search(genome, compiled)
        obs = result.stats["obs"]
        assert obs["counters"]["kernel.positions_scanned"] == len(genome)
        assert obs["counters"]["report.events"] == len(result.hits)
        assert [s["name"] for s in obs["spans"]] == ["kernel"]
        assert result.stats["report_events_per_mbp"] == pytest.approx(
            1e6 * len(result.hits) / len(genome)
        )

    def test_engine_search_into_caller_metrics(self, genome, guides, budget):
        compiled = compile_library(guides, budget)
        metrics = Metrics()
        get_engine("hyperscan").search(genome, compiled, metrics=metrics)
        get_engine("fpga").search(genome, compiled, metrics=metrics)
        assert metrics.counter("kernel.positions_scanned") == 2 * len(genome)
        assert metrics.snapshot()["timers"]["kernel.seconds"]["count"] == 2


class TestStreamingInstrumentation:
    """The in-process chunk stream: ``ParallelSearch(workers=1)``."""

    def test_search_with_stats_matches_search(self, genome, guides, budget):
        streaming = ParallelSearch(guides, budget, workers=1, chunk_length=900)
        hits, stats = streaming.search_with_stats(genome)
        assert hits == streaming.search(genome)
        assert stats["num_chunks"] == len(stats["shards"]) > 1
        assert stats["kernel_positions"] >= len(genome)
        assert stats["report_events"] >= len(hits)
        assert stats["wall_seconds"] >= 0.0
        json.dumps(stats)

    def test_chunk_rows_cover_sequence(self, genome, guides, budget):
        streaming = ParallelSearch(guides, budget, workers=1, chunk_length=900)
        _, stats = streaming.search_with_stats(genome)
        last = streaming.shard_tasks(genome)[-1]
        assert stats["shards"][-1]["chunk_start"] == last.chunk_start
        assert last.chunk_start + last.chunk_length == len(genome)


class TestParallelInstrumentation:
    def test_stats_carry_obs_snapshot(self, genome, guides, budget):
        executor = ParallelSearch(guides, budget, workers=1, chunk_length=900)
        _, stats = executor.search_with_stats(genome)
        obs = stats["obs"]
        assert obs["counters"]["parallel.shards_completed"] == stats["num_shards"]
        names = [s["name"] for s in obs["spans"]]
        assert "shard_tasks" in names
        assert "execute" in names
        assert "merge" in names
        json.dumps(stats)


class TestPipelineInstrumentation:
    def test_run_stats_include_pipeline_trace(self, genome, guides, budget):
        report = OffTargetSearch(guides, budget).run(genome)
        pipeline = report.stats["pipeline"]
        names = [s["name"] for s in pipeline["spans"]]
        assert "resolve" in names
        assert "search" in names
        assert "sort" in names
        assert pipeline["counters"]["search.hits"] == report.num_hits
        assert pipeline["counters"]["search.positions"] == len(genome)
        json.dumps(report.stats)
