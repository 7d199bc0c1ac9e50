"""Tests for the batch-serving layer (`repro.service`).

The load-bearing property is the **differential guarantee**: for any
interleaving of concurrent requests, each request's demultiplexed hit
tuple is bit-identical to a solo :class:`OffTargetSearch` run of the
same (guides, budget, genome). Everything else — coalescing counters,
admission control, capacity splitting, graceful overload — is pinned
around that invariant with a deterministic scheduler (``background=
False`` + explicit ``flush()``), so no test depends on timing.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro import (
    Guide,
    OffTargetSearch,
    OffTargetService,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.core.compiler import compile_guide
from repro.errors import (
    CapacityError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.platforms.spec import ApSpec
from repro.service import QueryRequest, SessionRegistry
from repro.service.scheduler import make_requests, split_into_passes

from helpers import DispatchGate

CHUNK = 1 << 12  # force several chunks even on the 5 kbp test genome


def make_service(**kwargs):
    kwargs.setdefault("background", False)
    kwargs.setdefault("chunk_length", CHUNK)
    return OffTargetService(**kwargs)


def oracle_hits(guides, budget, genome):
    """The solo serial run every service result must equal bit-for-bit."""
    return OffTargetSearch(guides, budget).run(genome).hits


@pytest.fixture(scope="module")
def pool(small_genome):
    """Six guides sampled from the shared 5 kbp genome."""
    return tuple(sample_guides_from_genome(small_genome, 6, seed=29))


class TestDifferentialGuarantee:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interleaved_requests_match_solo_runs(self, small_genome, pool, seed):
        """Random overlapping guide mixes, one coalesced flush, exact demux."""
        rng = np.random.default_rng(seed)
        budget = SearchBudget(mismatches=2)
        mixes = []
        for _ in range(5):
            count = int(rng.integers(1, len(pool) + 1))
            indices = rng.choice(len(pool), size=count, replace=False)
            mixes.append(tuple(pool[i] for i in sorted(indices)))
        with make_service() as service:
            service.add_genome("default", small_genome)
            futures = [service.query_async(mix, budget) for mix in mixes]
            assert service.flush() == len(mixes)
            for mix, future in zip(mixes, futures):
                assert future.result().hits == oracle_hits(mix, budget, small_genome)

    def test_results_independent_of_batching(self, small_genome, pool):
        """The same requests, coalesced vs flushed one by one: identical."""
        budget = SearchBudget(mismatches=2)
        mixes = [pool[:3], pool[2:5], pool[1:2]]
        with make_service() as coalesced:
            coalesced.add_genome("default", small_genome)
            futures = [coalesced.query_async(mix, budget) for mix in mixes]
            coalesced.flush()
            together = [future.result().hits for future in futures]
        with make_service() as solo:
            solo.add_genome("default", small_genome)
            alone = [solo.query(mix, budget).hits for mix in mixes]
        assert together == alone
        for mix, hits in zip(mixes, together):
            assert hits == oracle_hits(mix, budget, small_genome)

    def test_same_content_different_names_share_one_scan(self, small_genome, pool):
        """Two clients naming the same sequence differently both demux right."""
        budget = SearchBudget(mismatches=2)
        original = pool[0]
        renamed = Guide("client2-alias", original.protospacer, original.pam)
        with make_service() as service:
            service.add_genome("default", small_genome)
            future_a = service.query_async((original,), budget)
            future_b = service.query_async((renamed,), budget)
            service.flush()
            hits_a = future_a.result().hits
            hits_b = future_b.result().hits
        assert hits_a == oracle_hits((original,), budget, small_genome)
        assert hits_b == oracle_hits((renamed,), budget, small_genome)
        assert {hit.guide_name for hit in hits_a} <= {original.name}
        assert {hit.guide_name for hit in hits_b} <= {renamed.name}
        # one compiled artefact served both requests
        spans = lambda hits: {(h.strand, h.start, h.end, h.mismatches) for h in hits}
        assert spans(hits_a) == spans(hits_b)

    def test_bulged_budget_demultiplexes_exactly(self, small_genome, pool):
        budget = SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1)
        mixes = [pool[:2], pool[1:3]]
        with make_service() as service:
            service.add_genome("default", small_genome)
            futures = [service.query_async(mix, budget) for mix in mixes]
            service.flush()
            for mix, future in zip(mixes, futures):
                assert future.result().hits == oracle_hits(mix, budget, small_genome)

    def test_multi_sequence_session(self, pool):
        chr1 = random_genome(3000, seed=41, name="chrA")
        chr2 = random_genome(2000, seed=42, name="chrB")
        budget = SearchBudget(mismatches=2)
        with make_service() as service:
            service.add_genome("default", [chr1, chr2])
            result = service.query(pool[:3], budget)
        assert result.hits == OffTargetSearch(pool[:3], budget).run([chr1, chr2]).hits

    def test_pooled_workers_match_serial(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service(workers=2) as service:
            service.add_genome("default", small_genome)
            result = service.query(pool[:4], budget)
        assert result.hits == oracle_hits(pool[:4], budget, small_genome)


class TestPersistentPool:
    def test_one_spawn_serves_every_query_and_close_reaps_it(
        self, small_genome, pool
    ):
        before = set(multiprocessing.active_children())
        service = make_service(workers=2, background=True)
        try:
            service.add_genome("default", small_genome)
            assert service.stats()["pool"] == {"workers": 2, "spawns": 0}
            for index in range(5):
                guides = pool[index : index + 2]
                budget = SearchBudget(mismatches=1 + index % 2)
                result = service.query(guides, budget)
                assert result.hits == oracle_hits(guides, budget, small_genome)
            stats = service.stats()
        finally:
            service.close()
        assert stats["genome_passes"] == 5
        assert stats["pool"] == {"workers": 2, "spawns": 1}
        assert set(multiprocessing.active_children()) <= before

    def test_a_session_registered_after_the_spawn_forks_once_more(
        self, small_genome, pool
    ):
        # The workers forked for session "a" never saw "b": its first
        # pooled query forks fresh ones, which inherit both sessions.
        before = set(multiprocessing.active_children())
        other = random_genome(5000, seed=37, name="chrLate")
        late = sample_guides_from_genome(other, 2, seed=38, name_prefix="late")
        budget = SearchBudget(mismatches=2)
        service = make_service(workers=2)
        try:
            service.add_genome("a", small_genome)
            got = service.query(pool[:2], budget, session_id="a").hits
            assert got == oracle_hits(pool[:2], budget, small_genome)
            assert service.stats()["pool"]["spawns"] == 1
            service.add_genome("b", other)
            got = service.query(late, budget, session_id="b").hits
            assert got == oracle_hits(late, budget, other)
            got = service.query(pool[:2], budget, session_id="a").hits
            assert got == oracle_hits(pool[:2], budget, small_genome)
            stats = service.stats()
        finally:
            service.close()
        assert stats["pool"] == {"workers": 2, "spawns": 2}
        assert set(multiprocessing.active_children()) <= before

    def test_in_process_service_never_spawns(self, small_genome, pool):
        with make_service() as service:
            service.add_genome("default", small_genome)
            service.query(pool[:2], SearchBudget(mismatches=1))
            assert service.stats()["pool"] == {"workers": 1, "spawns": 0}


class TestCoalescing:
    def test_one_flush_one_batch_one_pass(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service() as service:
            service.add_genome("default", small_genome)
            for mix in (pool[:2], pool[1:4], pool[4:]):
                service.query_async(mix, budget)
            service.flush()
            stats = service.stats()
        assert stats["batches"] == 1
        assert stats["coalesced_batches"] == 1
        assert stats["batch_requests"] == 3
        assert stats["genome_passes"] == 1
        assert stats["requests"]["completed"] == 3

    def test_distinct_budgets_do_not_coalesce(self, small_genome, pool):
        with make_service() as service:
            service.add_genome("default", small_genome)
            future_a = service.query_async(pool[:2], SearchBudget(mismatches=1))
            future_b = service.query_async(pool[:2], SearchBudget(mismatches=2))
            service.flush()
            stats = service.stats()
            assert future_a.result().hits != future_b.result().hits or True
        assert stats["batches"] == 2
        assert stats["coalesced_batches"] == 0
        assert stats["genome_passes"] == 2

    def test_distinct_sessions_do_not_coalesce(self, small_genome, pool):
        other = random_genome(2500, seed=43, name="chrOther")
        budget = SearchBudget(mismatches=2)
        with make_service() as service:
            service.add_genome("default", small_genome)
            service.add_genome("other", other)
            future_a = service.query_async(pool[:2], budget)
            future_b = service.query_async(pool[:2], budget, session_id="other")
            service.flush()
        assert future_a.result().hits == oracle_hits(pool[:2], budget, small_genome)
        assert future_b.result().hits == oracle_hits(pool[:2], budget, other)

    def test_duplicate_guide_content_compiles_once(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service() as service:
            service.add_genome("default", small_genome)
            # within one batch, identical content collapses to one automaton
            for _ in range(3):
                service.query_async((pool[0],), budget)
            service.flush()
            assert service.stats()["obs"]["counters"]["service.batch_guides"] == 1
            assert service.cache.stats()["misses"] == 1
            # across batches, the cache serves the compiled artefact
            service.query((pool[0],), budget)
            service.query((pool[0],), budget)
            cache = service.cache.stats()
        assert cache["misses"] == 1
        assert cache["hits"] == 2


class TestAdmissionControl:
    def test_overload_sheds_with_typed_error(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service(max_queue_depth=2) as service:
            service.add_genome("default", small_genome)
            kept = [service.query_async((pool[i],), budget) for i in range(2)]
            with pytest.raises(ServiceOverloadedError):
                service.query_async((pool[2],), budget)
            stats = service.stats()
            assert stats["requests"]["shed"] == 1
            assert stats["queue_depth"] == 2
            # the admitted requests are untouched by the shed
            service.flush()
            for i, future in enumerate(kept):
                assert future.result().hits == oracle_hits(
                    (pool[i],), budget, small_genome
                )

    def test_queue_drains_and_readmits(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service(max_queue_depth=1) as service:
            service.add_genome("default", small_genome)
            first = service.query_async((pool[0],), budget)
            with pytest.raises(ServiceOverloadedError):
                service.query_async((pool[1],), budget)
            service.flush()
            second = service.query_async((pool[1],), budget)  # readmitted
            service.flush()
            assert first.result().num_hits >= 0
            assert second.result().hits == oracle_hits(
                (pool[1],), budget, small_genome
            )

    def test_expired_deadline_fails_only_that_request(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service() as service:
            service.add_genome("default", small_genome)
            expired = service.submit(
                QueryRequest(
                    guides=(pool[0],),
                    budget=budget,
                    deadline=time.monotonic() - 1.0,
                )
            )
            alive = service.query_async((pool[1],), budget)
            service.flush()
            with pytest.raises(DeadlineExceededError):
                expired.result()
            assert alive.result().hits == oracle_hits(
                (pool[1],), budget, small_genome
            )
            assert service.stats()["requests"]["deadline_expired"] == 1

    def test_malformed_requests_rejected_before_admission(self, small_genome, pool):
        with make_service() as service:
            service.add_genome("default", small_genome)
            with pytest.raises(ServiceError):
                make_requests((), SearchBudget())
            twin = Guide(pool[0].name, pool[1].protospacer, pool[1].pam)
            with pytest.raises(ServiceError):
                service.query_async((pool[0], twin), SearchBudget())
            with pytest.raises(ServiceError):
                service.query_async((pool[0],), SearchBudget(), session_id="nope")
            assert service.stats()["requests"]["admitted"] == 0

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_timeout_refused_before_admission(
        self, small_genome, pool, timeout
    ):
        # The timeout is the request's only deadline: a value that would
        # expire at once or never is a bad request, not a deadline miss.
        with make_service() as service:
            service.add_genome("default", small_genome)
            with pytest.raises(ServiceError, match="timeout") as excinfo:
                service.query_async(
                    (pool[0],), SearchBudget(), timeout_seconds=timeout
                )
            assert not isinstance(excinfo.value, DeadlineExceededError)
            assert service.stats()["requests"]["admitted"] == 0

    def test_closed_service_refuses_queries(self, small_genome, pool):
        service = make_service()
        service.add_genome("default", small_genome)
        service.close()
        with pytest.raises(ServiceError):
            service.query_async((pool[0],), SearchBudget())

    @pytest.mark.parametrize("background", [True, False])
    def test_stopped_scheduler_refuses_submits(self, small_genome, pool, background):
        # A query that passed the service's closed check just before
        # close() reaches the scheduler after its final flush: it must
        # be refused, not queued where nothing will ever resolve it.
        service = make_service(background=background)
        service.add_genome("default", small_genome)
        service.close()
        with pytest.raises(ServiceError, match="stopped"):
            service.scheduler.submit(make_requests(pool[0], SearchBudget()))
        assert service.scheduler.queue_depth == 0

    def test_close_racing_submits_strands_no_request(self, small_genome, pool):
        budget = SearchBudget(mismatches=1)
        admitted = []

        def client(index: int) -> None:
            for _ in range(200):
                try:
                    future = service.query_async((pool[index],), budget)
                    admitted.append((index, future))
                except ServiceOverloadedError:
                    continue
                except ServiceError:
                    return  # closed: refused before admission

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            service = make_service(background=True)
            service.add_genome("default", small_genome)
            threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while not admitted and time.monotonic() < deadline:
                time.sleep(0.001)
            service.close()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        # Every admitted request resolves exactly; a stranded one times out.
        expected = [oracle_hits((guide,), budget, small_genome) for guide in pool[:4]]
        for index, future in admitted:
            assert future.result(timeout=10).hits == expected[index]


class TestCapacityPasses:
    def test_planning_without_capacity_builds_no_automaton(self, pool):
        # With no platform (the serve default) nothing is priced, so
        # planning must not build any guide's homogeneous automaton.
        budget = SearchBudget(mismatches=2)
        compiled = [compile_guide(guide, budget) for guide in pool[:3]]
        passes, unplaceable = split_into_passes(compiled, None)
        assert passes == [compiled] and unplaceable == []
        assert not any("homogeneous" in guide.__dict__ for guide in compiled)

    def _spec_fitting(self, stes: int) -> ApSpec:
        return ApSpec(
            stes_per_chip=stes, chips_per_rank=1, ranks=1, routable_fraction=1.0
        )

    def test_platform_capacity_splits_into_passes(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        per_guide = compile_guide(pool[0], budget).num_stes
        spec = self._spec_fitting(per_guide + 1)  # one guide per pass
        with make_service(capacity_spec=spec) as service:
            service.add_genome("default", small_genome)
            result = service.query(pool[:3], budget)
        assert result.stats["passes"] == 3
        assert result.hits == oracle_hits(pool[:3], budget, small_genome)

    def test_unplaceable_guide_fails_only_its_requests(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        per_guide = compile_guide(pool[0], budget).num_stes
        spec = self._spec_fitting(per_guide - 1)  # nothing fits
        with make_service(capacity_spec=self._spec_fitting(per_guide)) as ok_service:
            ok_service.add_genome("default", small_genome)
            assert (
                ok_service.query((pool[0],), budget).hits
                == oracle_hits((pool[0],), budget, small_genome)
            )
        with make_service(capacity_spec=spec) as service:
            service.add_genome("default", small_genome)
            doomed = service.query_async((pool[0],), budget)
            service.flush()
            with pytest.raises(CapacityError):
                doomed.result()
            assert service.stats()["requests"]["over_capacity"] == 1


class TestBackgroundMode:
    def test_blocking_queries_through_the_batcher(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        with make_service(background=True) as service:
            service.add_genome("default", small_genome)
            for mix in (pool[:2], pool[2:4]):
                assert service.query(mix, budget).hits == oracle_hits(
                    mix, budget, small_genome
                )

    def test_concurrent_threads_all_get_exact_results(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        mixes = [pool[:2], pool[1:4], pool[3:], (pool[0], pool[5])]
        results: dict[int, tuple] = {}

        with make_service(background=True) as service:
            service.add_genome("default", small_genome)

            def worker(index: int) -> None:
                results[index] = service.query(mixes[index], budget).hits

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(len(mixes))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = service.stats()
        for index, mix in enumerate(mixes):
            assert results[index] == oracle_hits(mix, budget, small_genome)
        assert stats["requests"]["completed"] == len(mixes)

    def test_arrivals_during_a_batch_form_the_next_batch(self, small_genome, pool):
        # Continuous batching: the idle batcher dispatches the first
        # panel alone; the three admitted while it runs share one batch.
        budget = SearchBudget(mismatches=2)
        panels = [pool[:2], pool[1:4], pool[3:], (pool[0], pool[5])]
        with make_service(background=True) as service:
            service.add_genome("default", small_genome)
            gate = DispatchGate(service.scheduler)
            first = service.query_async(panels[0], budget)
            gate.wait_reached()
            rest = [service.query_async(panel, budget) for panel in panels[1:]]
            gate.release()
            results = [future.result(timeout=60) for future in (first, *rest)]
            stats = service.stats()
        assert stats["batches"] == 2
        assert stats["batch_requests"] == 4
        assert stats["coalesced_batches"] == 1
        for panel, result in zip(panels, results):
            assert result.hits == oracle_hits(panel, budget, small_genome)

    def test_stop_drains_admitted_requests(self, small_genome, pool):
        budget = SearchBudget(mismatches=2)
        service = make_service(background=True)
        service.add_genome("default", small_genome)
        gate = DispatchGate(service.scheduler)
        future = service.query_async((pool[0],), budget)
        gate.wait_reached()
        queued = service.query_async((pool[1],), budget)  # behind the held batch
        closer = threading.Thread(target=service.close)
        closer.start()
        deadline = time.monotonic() + 10  # until stop() refuses new work
        while time.monotonic() < deadline and not service.scheduler._stop.is_set():
            time.sleep(0.001)
        assert not future.done() and not queued.done()
        gate.release()
        closer.join(timeout=60)
        assert not closer.is_alive()
        # close() returned, so both resolved: the held batch, and the
        # queued request through stop's final flush
        assert future.result(timeout=1).hits == oracle_hits(
            (pool[0],), budget, small_genome
        )
        assert queued.result(timeout=1).hits == oracle_hits(
            (pool[1],), budget, small_genome
        )


class TestSessions:
    def test_registry_round_trip(self, small_genome):
        registry = SessionRegistry()
        registry.add_sequences("hg", small_genome)
        assert "hg" in registry and len(registry) == 1
        assert registry.get("hg").total_length == len(small_genome)
        with pytest.raises(ServiceError):
            registry.add_sequences("hg", small_genome)  # duplicate id
        with pytest.raises(ServiceError):
            registry.get("nope")
        registry.remove("hg")
        assert "hg" not in registry
        with pytest.raises(ServiceError):
            registry.remove("hg")

    def test_fasta_loaded_once(self, tmp_path, small_genome):
        from repro import write_fasta

        path = tmp_path / "ref.fa"
        write_fasta([small_genome], path)
        registry = SessionRegistry()
        session = registry.add_fasta("ref", path)
        assert session.source == str(path)
        assert [s.name for s in session.sequences] == [small_genome.name]
        registry.get("ref")
        registry.get("ref")
        assert registry._metrics.counter("service.sessions.reuses") == 2
        assert registry._metrics.counter("service.sessions.loaded") == 1
        description = registry.describe()
        assert description[0]["total_length"] == len(small_genome)


class TestServiceStats:
    def test_acceptance_signals_present(self, small_genome, pool):
        """--stats-json must report coalesced batches, hit rate, sheds."""
        budget = SearchBudget(mismatches=2)
        with make_service(max_queue_depth=1) as service:
            service.add_genome("default", small_genome)
            service.query_async((pool[0],), budget)
            with pytest.raises(ServiceOverloadedError):
                service.query_async((pool[1],), budget)
            service.flush()
            service.query((pool[0],), budget)  # cache-warm repeat
            stats = service.stats()
        assert stats["coalesced_batches"] == 0
        assert stats["batches"] == 2
        assert stats["requests"]["shed"] == 1
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)
        assert stats["obs"]["gauges"]["service.queue_depth"] == 0
