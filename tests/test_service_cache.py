"""Tests for the compiled-guide cache and its ``SVC`` invariant rules.

The hypothesis property at the bottom is the cache's contract in one
line: *a warm cache never changes an answer*. Every request in a
random sequence of guide/budget mixes — however warm the cache has
become — must return hits bit-identical to a cold solo
:class:`OffTargetSearch` run.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Guide,
    Metrics,
    OffTargetSearch,
    OffTargetService,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.check import check_guide_cache
from repro.core import compiler
from repro.core.compiler import compile_guide
from repro.errors import ServiceError
from repro.platforms.spec import ApSpec
from repro.service import CompiledGuideCache, cache_key, canonical_name
from repro.service.scheduler import split_into_passes


@pytest.fixture(scope="module")
def genome():
    """A small genome so the property test stays fast per example."""
    return random_genome(1500, seed=17, name="chrCache")


@pytest.fixture(scope="module")
def guides(genome):
    return tuple(sample_guides_from_genome(genome, 4, seed=19))


BUDGETS = (
    SearchBudget(mismatches=1),
    SearchBudget(mismatches=2),
    SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1),
)


class TestCacheKeying:
    def test_key_ignores_display_name(self, guides):
        budget = BUDGETS[0]
        alias = Guide("totally-different", guides[0].protospacer, guides[0].pam)
        assert cache_key(guides[0], budget) == cache_key(alias, budget)

    def test_key_separates_budget_axes(self, guides):
        keys = {cache_key(guides[0], budget) for budget in BUDGETS}
        assert len(keys) == len(BUDGETS)

    def test_canonical_name_deterministic_and_distinct(self, guides):
        key_a = cache_key(guides[0], BUDGETS[0])
        key_b = cache_key(guides[1], BUDGETS[0])
        assert canonical_name(key_a) == canonical_name(key_a)
        assert canonical_name(key_a) != canonical_name(key_b)
        assert canonical_name(key_a).startswith("cg-")

    def test_entry_carries_canonical_name(self, guides):
        cache = CompiledGuideCache(4)
        compiled = cache.get(guides[0], BUDGETS[0])
        key = cache_key(guides[0], BUDGETS[0])
        assert compiled.guide.name == canonical_name(key)
        assert compiled.guide.protospacer == guides[0].protospacer

    def test_shared_entry_across_display_names(self, guides):
        cache = CompiledGuideCache(4)
        alias = Guide("alias", guides[0].protospacer, guides[0].pam)
        first = cache.get(guides[0], BUDGETS[0])
        second = cache.get(alias, BUDGETS[0])
        assert first is second
        assert len(cache) == 1
        assert cache.stats()["hits"] == 1


class TestLazyAutomata:
    """Strand NFAs are built only when something reads them."""

    @pytest.fixture
    def strand_builds(self, monkeypatch):
        built: list[str] = []
        original = compiler._compile_strand

        def counting(guide, budget, *, strand):
            built.append(strand)
            return original(guide, budget, strand=strand)

        monkeypatch.setattr(compiler, "_compile_strand", counting)
        return built

    def test_served_query_builds_no_strand_nfa(self, genome, guides, strand_builds):
        expected = [OffTargetSearch(guides, budget).run(genome).hits for budget in BUDGETS]
        strand_builds.clear()  # the solo runs compile their library
        with OffTargetService(background=False) as service:
            service.add_genome("default", genome)
            for budget, hits in zip(BUDGETS, expected):
                assert service.query(guides, budget).hits == hits
            entries = [entry for _, entry in service.cache.items()]
        assert strand_builds == []
        assert entries and not any(
            "forward" in entry.__dict__ or "reverse" in entry.__dict__ for entry in entries
        )

    def test_capacity_planning_builds_them_and_keeps_its_passes(self, guides, strand_builds):
        budget = BUDGETS[1]
        per_guide = compile_guide(guides[0], budget).num_stes
        assert strand_builds == ["+", "-"]
        spec = ApSpec(
            stes_per_chip=2 * per_guide + 1, chips_per_rank=1, ranks=1, routable_fraction=1.0
        )
        lazy = [compile_guide(guide, budget) for guide in guides]
        eager = [compile_guide(guide, budget) for guide in guides]
        for compiled in eager:
            compiled.forward, compiled.reverse
        lazy_passes, lazy_unplaceable = split_into_passes(lazy, spec)
        eager_passes, eager_unplaceable = split_into_passes(eager, spec)
        names = lambda passes: [[c.guide.name for c in group] for group in passes]  # noqa: E731
        assert names(lazy_passes) == names(eager_passes) and len(lazy_passes) > 1
        assert lazy_unplaceable == eager_unplaceable == []
        assert all("forward" in compiled.__dict__ for compiled in lazy)

    def test_export_adopt_round_trip_builds_on_first_access(self, guides):
        budget = BUDGETS[2]
        source, target = CompiledGuideCache(4), CompiledGuideCache(4)
        exported = source.peek(guides[0], budget) or source.get(guides[0], budget)
        adopted = pickle.loads(pickle.dumps(exported))
        assert "forward" not in adopted.__dict__
        target.adopt(adopted)
        assert target.peek(guides[0], budget) is adopted
        fresh = compile_guide(adopted.guide, budget)
        assert adopted.forward.num_states == fresh.forward.num_states
        assert adopted.num_stes == fresh.num_stes


class TestLruSemantics:
    def test_capacity_is_never_exceeded(self, guides):
        cache = CompiledGuideCache(2)
        for guide in guides:
            cache.get(guide, BUDGETS[0])
            assert len(cache) <= 2
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["misses"] == len(guides)
        assert stats["evictions"] == len(guides) - 2

    def test_least_recently_used_is_evicted_first(self, guides):
        cache = CompiledGuideCache(2)
        cache.get(guides[0], BUDGETS[0])
        cache.get(guides[1], BUDGETS[0])
        cache.get(guides[0], BUDGETS[0])  # refresh 0 → 1 is now LRU
        cache.get(guides[2], BUDGETS[0])  # evicts 1
        assert cache_key(guides[0], BUDGETS[0]) in cache
        assert cache_key(guides[1], BUDGETS[0]) not in cache
        assert cache_key(guides[2], BUDGETS[0]) in cache

    def test_keys_are_lru_ordered(self, guides):
        cache = CompiledGuideCache(4)
        for guide in guides[:3]:
            cache.get(guide, BUDGETS[0])
        cache.get(guides[0], BUDGETS[0])  # most recent again
        assert cache.keys() == [
            cache_key(guides[1], BUDGETS[0]),
            cache_key(guides[2], BUDGETS[0]),
            cache_key(guides[0], BUDGETS[0]),
        ]

    def test_metrics_wiring(self, guides):
        metrics = Metrics()
        cache = CompiledGuideCache(1, metrics=metrics)
        cache.get(guides[0], BUDGETS[0])
        cache.get(guides[0], BUDGETS[0])
        cache.get(guides[1], BUDGETS[0])  # evicts guides[0]
        assert metrics.counter("service.cache.lookups") == 3
        assert metrics.counter("service.cache.hits") == 1
        assert metrics.counter("service.cache.misses") == 2
        assert metrics.counter("service.cache.evictions") == 1
        assert metrics.gauge_value("service.cache.size") == 1

    def test_clear_keeps_history(self, guides):
        cache = CompiledGuideCache(4)
        cache.get(guides[0], BUDGETS[0])
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    @pytest.mark.parametrize("capacity", [0, -1, "many"])
    def test_invalid_capacity_rejected(self, capacity):
        with pytest.raises(ServiceError):
            CompiledGuideCache(capacity)


class TestCheckRules:
    def test_healthy_cache_passes(self, guides):
        cache = CompiledGuideCache(2)
        for guide in guides:
            cache.get(guide, BUDGETS[0])
        report = check_guide_cache(cache)
        assert report.ok, report.to_text()
        assert "SVC004" in report.rules()

    def test_svc001_capacity_violation(self, guides):
        cache = CompiledGuideCache(1)
        cache.get(guides[0], BUDGETS[0])
        # sabotage: stuff a second entry in behind the LRU's back
        key = cache_key(guides[1], BUDGETS[0])
        cache._entries[key] = CompiledGuideCache(1).get(guides[1], BUDGETS[0])
        report = check_guide_cache(cache)
        assert "SVC001" in {d.rule for d in report.errors}

    def test_svc002_key_entry_mismatch(self, guides):
        cache = CompiledGuideCache(4)
        cache.get(guides[0], BUDGETS[0])
        cache.get(guides[1], BUDGETS[0])
        # sabotage: swap the two artefacts under each other's keys
        keys = cache.keys()
        entries = dict(cache.items())
        cache._entries[keys[0]], cache._entries[keys[1]] = (
            entries[keys[1]],
            entries[keys[0]],
        )
        report = check_guide_cache(cache)
        assert "SVC002" in {d.rule for d in report.errors}

    def test_svc002_non_canonical_name(self, guides):
        cache = CompiledGuideCache(4)
        cache.get(guides[0], BUDGETS[0])
        key = cache.keys()[0]
        compiled = cache._entries[key]
        cache._entries[key] = dataclasses.replace(
            compiled, guide=Guide("sneaky", compiled.guide.protospacer, compiled.guide.pam)
        )
        report = check_guide_cache(cache)
        assert "SVC002" in {d.rule for d in report.errors}

    def test_svc003_counter_incoherence(self, guides):
        cache = CompiledGuideCache(4)
        cache.get(guides[0], BUDGETS[0])
        cache._hits += 7  # sabotage: hits + misses no longer equal lookups
        report = check_guide_cache(cache)
        assert "SVC003" in {d.rule for d in report.errors}

    def test_svc003_eviction_excess(self, guides):
        cache = CompiledGuideCache(4)
        cache.get(guides[0], BUDGETS[0])
        cache._evictions = 5  # sabotage: more evictions than misses
        report = check_guide_cache(cache)
        assert "SVC003" in {d.rule for d in report.errors}


class TestWarmColdProperty:
    """Cache-warm service answers == cold solo searches, bit for bit."""

    @given(
        plan=st.lists(
            st.tuples(
                st.sets(st.integers(min_value=0, max_value=3), min_size=1),
                st.integers(min_value=0, max_value=len(BUDGETS) - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_warm_cache_never_changes_an_answer(self, genome, guides, plan):
        oracle: dict[tuple, tuple] = {}
        with OffTargetService(
            background=False, chunk_length=1 << 12, cache_capacity=3
        ) as service:
            # capacity 3 < the up-to-12 distinct (guide, budget) keys, so
            # long plans also exercise eviction mid-sequence.
            service.add_genome("default", genome)
            for indices, budget_index in plan:
                mix = tuple(guides[i] for i in sorted(indices))
                budget = BUDGETS[budget_index]
                witness = (tuple(sorted(indices)), budget_index)
                if witness not in oracle:
                    oracle[witness] = (
                        OffTargetSearch(mix, budget).run(genome).hits
                    )
                assert service.query(mix, budget).hits == oracle[witness]
            report = check_guide_cache(service.cache)
            assert report.ok, report.to_text()
