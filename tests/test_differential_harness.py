"""The differential harness, and the full cross-engine grid it drives.

Two layers: meta-tests that the harness itself is trustworthy (the
grid is deterministic, the engine registry is complete, a corrupted
hit list *fails* the agreement check — a harness that can't fail
pins nothing), and then the actual differential sweep: every engine
bit-identical to the naive oracle across the genome x panel x budget x
chunk grid, including empty genomes, N-runs, and adversarial chunk
lengths.
"""

import pytest

from repro import SearchBudget

from differential import (
    ALL_ENGINES,
    BULGED_GRID_SPEC,
    CHUNKED_ENGINES,
    KERNEL_ENGINES,
    NUM_CHUNK_CHOICES,
    DifferentialCase,
    GridSpec,
    adversarial_chunk_length,
    assert_engines_agree,
    bulged_differential_grid,
    case_from_seed,
    differential_grid,
    duplicate_keys,
    mixed_pam_cases,
    next_prime_above,
    oracle_hits,
    planted_bulge_cases,
    run_engine,
)

GRID_CASES = list(differential_grid())
GRID_IDS = [case.label for case in GRID_CASES]

BULGED_GRID_CASES = list(bulged_differential_grid())
BULGED_GRID_IDS = [case.label for case in BULGED_GRID_CASES]

PLANTED_CASES = list(planted_bulge_cases())
PLANTED_IDS = [case.label for case in PLANTED_CASES]

MIXED_PAM_CASES = list(mixed_pam_cases())
MIXED_PAM_IDS = [case.label for case in MIXED_PAM_CASES]


# -- the sweep: every engine, every grid case ----------------------------------


class TestCrossEngineGrid:
    @pytest.mark.parametrize("case", GRID_CASES, ids=GRID_IDS)
    def test_all_engines_agree(self, case):
        assert_engines_agree(case)

    @pytest.mark.parametrize("case", GRID_CASES, ids=GRID_IDS)
    def test_no_engine_duplicates_a_site(self, case):
        for name in ALL_ENGINES:
            assert duplicate_keys(run_engine(name, case)) == [], name

    def test_grid_is_not_vacuous(self):
        # A sweep where nothing ever matches would pass trivially; the
        # grid must include cases with real hits (panels are sampled
        # from their genomes, so on-targets guarantee some).
        assert any(oracle_hits(case) for case in GRID_CASES)

    def test_multiworker_agreement_on_largest_case(self):
        case = max(GRID_CASES, key=lambda c: len(c.genome))
        sharded = DifferentialCase(
            genome=case.genome,
            guides=case.guides,
            budget=case.budget,
            chunk_length=case.chunk_length,
            workers=2,
            label=case.label + ",workers=2",
        )
        assert_engines_agree(sharded, engines=("parallel",))


# -- harness meta-tests --------------------------------------------------------


class TestHarnessSelf:
    def test_grid_is_deterministic(self):
        again = list(differential_grid())
        assert [c.label for c in again] == GRID_IDS
        assert [c.genome.text for c in again] == [c.genome.text for c in GRID_CASES]
        assert [c.guides for c in again] == [c.guides for c in GRID_CASES]

    def test_grid_covers_declared_axes(self):
        spec = GridSpec()
        lengths = {len(c.genome) for c in GRID_CASES}
        assert {0} <= lengths  # the empty genome is swept
        assert {len(c.guides) for c in GRID_CASES} == set(spec.panel_sizes)
        assert {c.budget.mismatches for c in GRID_CASES} == set(
            spec.mismatch_budgets
        )
        assert any("N" in c.genome.text for c in GRID_CASES)

    def test_engine_registry_is_complete(self):
        assert set(ALL_ENGINES) == set(KERNEL_ENGINES) | set(CHUNKED_ENGINES)
        case = case_from_seed(7, genome_length=400, panel_size=1)
        for name in ALL_ENGINES:
            assert isinstance(run_engine(name, case), list), name

    def test_unknown_engine_is_an_error(self):
        case = case_from_seed(7, genome_length=400, panel_size=1)
        with pytest.raises(ValueError, match="unknown differential engine"):
            run_engine("quantum", case)

    def test_harness_can_fail(self, monkeypatch):
        # The load-bearing meta-test: corrupt one engine's output and
        # the agreement check must raise. A harness that cannot fail
        # would certify anything.
        import differential as harness

        case = case_from_seed(11, genome_length=600, panel_size=1, mismatches=2)
        assert oracle_hits(case), "need a case with hits to corrupt"
        real_run_engine = harness.run_engine

        def corrupted(name, inner_case):
            hits = real_run_engine(name, inner_case)
            if name == "bitparallel" and hits:
                return hits[:-1]  # drop one hit
            return hits

        monkeypatch.setattr(harness, "run_engine", corrupted)
        with pytest.raises(AssertionError, match="bitparallel != naive"):
            harness.assert_engines_agree(case, engines=("bitparallel",))

    def test_harness_catches_reordering(self, monkeypatch):
        import differential as harness

        case = case_from_seed(11, genome_length=900, panel_size=3, mismatches=3)
        assert len(oracle_hits(case)) >= 2, "need >= 2 hits to reorder"
        real_run_engine = harness.run_engine

        def reordered(name, inner_case):
            hits = real_run_engine(name, inner_case)
            if name == "matcher":
                return list(reversed(hits))
            return hits

        monkeypatch.setattr(harness, "run_engine", reordered)
        with pytest.raises(AssertionError, match="ordered hit list"):
            harness.assert_engines_agree(case, engines=("matcher",))

    def test_case_from_seed_reproducible(self):
        a = case_from_seed(42)
        b = case_from_seed(42)
        assert a.genome.text == b.genome.text
        assert a.guides == b.guides
        assert oracle_hits(a) == oracle_hits(b)

    def test_overlap_matches_streaming_rule(self):
        case = case_from_seed(5, genome_length=400, panel_size=2)
        assert case.overlap == max(g.site_length for g in case.guides) - 1
        bulged = DifferentialCase(
            genome=case.genome,
            guides=case.guides,
            budget=SearchBudget(mismatches=1, dna_bulges=2),
        )
        assert bulged.overlap == case.overlap + 2

    def test_resolved_chunk_length_never_below_overlap(self):
        case = case_from_seed(5, genome_length=400, panel_size=1, chunk_length=1)
        assert case.resolved_chunk_length() > case.overlap


class TestChunkMenu:
    def test_next_prime_above(self):
        assert next_prime_above(1) == 2
        assert next_prime_above(24) == 29
        assert next_prime_above(29) == 29

    def test_menu_spans_the_adversarial_shapes(self):
        overlap, total = 22, 900
        lengths = [
            adversarial_chunk_length(overlap, total, c)
            for c in range(NUM_CHUNK_CHOICES)
        ]
        assert lengths[0] == overlap + 1  # minimum legal chunk
        assert lengths[3] > total  # one chunk swallows the genome
        assert all(length > overlap for length in lengths)

    def test_menu_never_returns_illegal_chunk(self):
        # Choice 4 is a fixed prime that can fall below a large
        # overlap; the clamp must keep every choice legal.
        for overlap in (10, 60, 61, 200):
            for choice in range(NUM_CHUNK_CHOICES):
                assert adversarial_chunk_length(overlap, 50, choice) > overlap


class TestBulgedBudgetsThroughHarness:
    """The bulge-first differential layer: every engine — the banded
    bit-parallel kernel included, natively, with no matcher fallback —
    bit-identical to the naive oracle across the bulged budget-shape
    grid and the planted-bulge adversaries (word-boundary straddles,
    genome-position-0 sites, PAM-adjacent bulges, saturating mixes)."""

    @pytest.mark.parametrize("case", BULGED_GRID_CASES, ids=BULGED_GRID_IDS)
    def test_bulged_grid_agreement(self, case):
        assert_engines_agree(case)

    @pytest.mark.parametrize("case", PLANTED_CASES, ids=PLANTED_IDS)
    def test_planted_bulge_agreement(self, case):
        assert_engines_agree(case)

    @pytest.mark.parametrize("case", PLANTED_CASES, ids=PLANTED_IDS)
    def test_no_engine_duplicates_a_planted_site(self, case):
        for name in ALL_ENGINES:
            assert duplicate_keys(run_engine(name, case)) == [], name

    def test_bulged_grid_covers_declared_shapes(self):
        shapes = {
            (c.budget.rna_bulges, c.budget.dna_bulges) for c in BULGED_GRID_CASES
        }
        assert shapes == set(BULGED_GRID_SPEC.bulge_shapes)
        assert (0, 0) not in shapes  # the bulged grid is all-bulged
        # Saturation is swept at both ends: a zero-mismatch bulged
        # budget and a budget where every dimension is spent.
        assert any(c.budget.mismatches == 0 for c in BULGED_GRID_CASES)
        assert any(
            c.budget.mismatches + c.budget.rna_bulges + c.budget.dna_bulges >= 5
            for c in BULGED_GRID_CASES
        )

    def test_planted_cases_are_not_vacuous(self):
        # The planted layer must contain found sites (the point of
        # planting) and at least one over-budget plant that no engine
        # may report.
        found = {case.label: len(oracle_hits(case)) for case in PLANTED_CASES}
        assert sum(found.values()) > 0
        assert found["plant[over-budget-mix]"] == 0
        assert found["plant[saturating-mix]"] == 1

    def test_planted_sites_straddle_words_and_chunks(self):
        by_label = {case.label: case for case in PLANTED_CASES}
        straddle = by_label["plant[rna-word-straddle]"]
        (hit,) = oracle_hits(straddle)
        assert hit.start < 64 < hit.end  # crosses the uint64 word seam
        assert straddle.resolved_chunk_length() < len(straddle.genome)
        at_zero = by_label["plant[rna-at-genome-start]"]
        (hit,) = oracle_hits(at_zero)
        assert hit.start == 0

    def test_bulged_multiworker_agreement(self):
        case = case_from_seed(
            23, genome_length=700, panel_size=1, mismatches=1,
            rna_bulges=1, dna_bulges=1,
        )
        sharded = DifferentialCase(
            genome=case.genome,
            guides=case.guides,
            budget=case.budget,
            chunk_length=64,
            workers=2,
            label="bulged,workers=2",
        )
        assert_engines_agree(sharded, engines=("parallel",))


class TestMixedPamPanels:
    """Panels that mix PAM layouts and lengths, so every kind of lane
    group the kernel forms — 3' and 5' PAMs, an all-``N`` PAM that
    keeps every start, a 30-nt protospacer — runs through every engine
    next to the others, on a genome with an N run."""

    @pytest.mark.parametrize("case", MIXED_PAM_CASES, ids=MIXED_PAM_IDS)
    def test_mixed_pam_agreement(self, case):
        assert_engines_agree(case)

    def test_every_guide_is_found(self):
        # Each guide is cut from the genome, so each must report at
        # least its own site under both budgets.
        for case in MIXED_PAM_CASES:
            found = {hit.guide_name for hit in oracle_hits(case)}
            assert found == {guide.name for guide in case.guides}, case.label
