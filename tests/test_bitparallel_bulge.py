"""Property and regression suite for the banded bulged-budget kernel.

PR 6 pinned the mismatch-only Shift-And machinery; this file pins the
diagonal-band extension that serves bulged budgets natively. The
hypothesis layer plants a known edit script (substitutions, interior
deletions = RNA bulges, interior insertions = DNA bulges) into PAM-free
filler and asserts the kernel finds the planted site exactly when the
script fits the budget — with the naive oracle co-asserted on every
example, so "found" always means "found and bit-identical to ground
truth". The directed classes pin the band mechanisms one by one
(`_band_transfer` chaining, the lane layout's segment splitting, the
per-delta bounds clamp), and the API class pins the panel against the
reference matcher on bulged budgets.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import NaiveSearcher, SearchBudget, random_genome
from repro.core import bitparallel, matcher
from repro.core.bitparallel import (
    BitParallelPanel,
    _band_transfer,
    _bulged_accept_boards,
    _compile_panel,
)
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide
from repro.grna.pam import Pam

from helpers import hit_multiset


def oracle(genome, guides, budget):
    return NaiveSearcher(budget).search(genome, guides)


def _pam_free_filler(length):
    # A/T-only filler cannot satisfy an NGG PAM on either strand, so a
    # planted site's position is fully controlled.
    return ("AT" * length)[:length]


def _flip(base):
    return {"A": "C", "C": "A", "G": "T", "T": "G"}[base]


def _edited_site(proto, sub_positions, del_positions, ins_positions):
    """Apply an edit script to *proto* and append a concrete NGG PAM.

    Substitutions flip the base in place; deletions drop interior
    positions (RNA bulges); insertions add a flipped copy of the base
    *before* each interior position (DNA bulges — flipped so the
    insertion cannot be re-read as a plain repeat of its neighbour).
    Positions are applied right-to-left so earlier indices stay valid.
    """
    site = list(proto)
    for p in sorted(sub_positions, reverse=True):
        site[p] = _flip(site[p])
    edits = [(p, "del") for p in del_positions] + [(p, "ins") for p in ins_positions]
    for p, kind in sorted(edits, reverse=True):
        if kind == "del":
            del site[p]
        else:
            site.insert(p, _flip(proto[p]))
    return "".join(site) + "AGG"


def _plant(site, offset, total=240):
    filler = _pam_free_filler(total)
    return Sequence.from_text(
        "chrPlantBulge", filler[:offset] + site + filler[: max(total - offset - len(site), 0)]
    )


# Edit scripts over a 20-mer: distinct interior positions, spaced two
# apart so deletions/insertions never collapse into each other.
_edit_script = st.builds(
    lambda positions, n_sub, n_del: (
        positions[: n_sub],
        positions[n_sub : n_sub + n_del],
        positions[n_sub + n_del :],
    ),
    positions=st.lists(
        st.sampled_from(range(2, 18, 2)), min_size=0, max_size=4, unique=True
    ),
    n_sub=st.integers(min_value=0, max_value=4),
    n_del=st.integers(min_value=0, max_value=4),
)


class TestPlantedEditScripts:
    @settings(max_examples=60, deadline=None)
    @given(
        proto=st.text(alphabet="ACGT", min_size=20, max_size=20),
        script=_edit_script,
        offset=st.integers(min_value=0, max_value=120),
    )
    def test_fitting_budget_finds_planted_site(self, proto, script, offset):
        subs, dels, inss = script
        guide = Guide("g", proto)
        site = _edited_site(proto, subs, dels, inss)
        genome = _plant(site, offset)
        budget = SearchBudget(
            mismatches=len(subs), rna_bulges=len(dels), dna_bulges=len(inss)
        )
        hits = bitparallel.find_hits(genome, [guide], budget)
        # Ground truth rides along on every example: whatever the edit
        # script produced, the kernel must agree with the oracle.
        assert hits == oracle(genome, [guide], budget)
        # And the planted span itself must be among the hits — the
        # script fits the budget by construction.
        span = (offset, offset + len(site))
        assert any((h.start, h.end) == span and h.strand == "+" for h in hits), (
            f"planted site {span} not found: proto={proto} script={script}"
        )

    @settings(max_examples=40, deadline=None)
    @given(
        proto=st.text(alphabet="ACGT", min_size=20, max_size=20),
        script=_edit_script,
        starve=st.sampled_from(["mismatches", "rna_bulges", "dna_bulges"]),
    )
    def test_starved_budget_stays_bit_identical(self, proto, script, starve):
        # Remove one unit from one budget dimension the script uses:
        # the kernel and the oracle must still agree on every hit —
        # including whether the planted site survives via some cheaper
        # reading the adversarial protospacer happens to allow.
        subs, dels, inss = script
        counts = {
            "mismatches": len(subs),
            "rna_bulges": len(dels),
            "dna_bulges": len(inss),
        }
        if counts[starve] == 0:
            return
        counts[starve] -= 1
        guide = Guide("g", proto)
        genome = _plant(_edited_site(proto, subs, dels, inss), 64)
        budget = SearchBudget(**counts)
        assert bitparallel.find_hits(genome, [guide], budget) == oracle(
            genome, [guide], budget
        )

    @settings(max_examples=30, deadline=None)
    @given(
        text=st.text(alphabet="ACGTN", min_size=0, max_size=160),
        proto=st.text(alphabet="ACGT", min_size=12, max_size=24),
        mismatches=st.integers(min_value=0, max_value=2),
        rna=st.integers(min_value=0, max_value=2),
        dna=st.integers(min_value=0, max_value=2),
    )
    def test_random_genomes_bit_identical_to_oracle(
        self, text, proto, mismatches, rna, dna
    ):
        genome = Sequence.from_text("chr", text)
        guides = [Guide("g", proto)]
        budget = SearchBudget(mismatches=mismatches, rna_bulges=rna, dna_bulges=dna)
        assert bitparallel.find_hits(genome, guides, budget) == oracle(
            genome, guides, budget
        )


class TestDirectedBudgetEdges:
    """The iff's hard direction, pinned on a non-degenerate guide."""

    GUIDE = Guide("edge", "GAGTCCGAGCAGAAGAAGAA")

    def _hits(self, site, budget):
        return bitparallel.find_hits(_plant(site, 64), [self.GUIDE], budget)

    def test_one_deletion_needs_one_rna_bulge(self):
        site = _edited_site(self.GUIDE.protospacer, [], [9], [])
        assert self._hits(site, SearchBudget(mismatches=0, rna_bulges=1)) != []
        # A deletion shifts every downstream base: no mismatch budget
        # this size can absorb it.
        assert self._hits(site, SearchBudget(mismatches=2, rna_bulges=0)) == []

    def test_one_insertion_needs_one_dna_bulge(self):
        site = _edited_site(self.GUIDE.protospacer, [], [], [9])
        assert self._hits(site, SearchBudget(mismatches=0, dna_bulges=1)) != []
        assert self._hits(site, SearchBudget(mismatches=2, dna_bulges=0)) == []

    def test_saturating_mix_found_then_starved_not(self):
        site = _edited_site(self.GUIDE.protospacer, [4], [9], [14])
        full = SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1)
        assert self._hits(site, full) != []
        for starved in (
            SearchBudget(mismatches=0, rna_bulges=1, dna_bulges=1),
            SearchBudget(mismatches=1, rna_bulges=0, dna_bulges=1),
            SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=0),
        ):
            assert self._hits(site, starved) == []

    def test_hit_reports_exact_edit_profile(self):
        site = _edited_site(self.GUIDE.protospacer, [4], [9], [])
        budget = SearchBudget(mismatches=2, rna_bulges=2, dna_bulges=2)
        hits = [
            h
            for h in self._hits(site, budget)
            if (h.start, h.end) == (64, 64 + len(site))
        ]
        assert [(h.mismatches, h.rna_bulges, h.dna_bulges) for h in hits] == [(1, 1, 0)]

    def test_five_prime_pam_bulges(self):
        guide = Guide(
            "cas12a",
            "TTCGATCGATCGATCGATCG",
            pam=Pam("TTTV", "TTTV", "5prime", "AsCpf1"),
        )
        proto = guide.protospacer
        site = "TTTA" + proto[:9] + proto[10:]  # drop interior position 9
        genome = Sequence.from_text(
            "chr5p", _pam_free_filler(50) + site + _pam_free_filler(50)
        )
        budget = SearchBudget(mismatches=0, rna_bulges=1, dna_bulges=1)
        hits = bitparallel.find_hits(genome, [guide], budget)
        assert hits == oracle(genome, [guide], budget)
        assert any(h.start == 50 and h.rna_bulges == 1 for h in hits)


# -- band-mechanism unit pins --------------------------------------------------


class TestBandPrimitives:
    def test_band_transfer_chains_ascending(self):
        # One set bit at dna=0 must propagate to every higher band in a
        # single call — the chained ascending OR that lets a layer
        # spend several DNA bulges back-to-back.
        reach = np.zeros((1, 3, 1, 2), dtype=np.uint64)
        reach[0, 0, 0, 0] = np.uint64(0b1010)
        _band_transfer(reach)
        for d in range(3):
            assert reach[0, d, 0, 0] == np.uint64(0b1010)

    def test_band_transfer_is_cumulative_not_swapping(self):
        reach = np.zeros((1, 2, 1, 1), dtype=np.uint64)
        reach[0, 0, 0, 0] = np.uint64(0b01)
        reach[0, 1, 0, 0] = np.uint64(0b10)
        _band_transfer(reach)
        assert reach[0, 0, 0, 0] == np.uint64(0b01)  # source untouched
        assert reach[0, 1, 0, 0] == np.uint64(0b11)  # target accumulates

    def test_band_transfer_preserves_rna_and_mismatch_axes(self):
        reach = np.zeros((2, 2, 2, 1), dtype=np.uint64)
        reach[1, 0, 1, 0] = np.uint64(1)
        _band_transfer(reach)
        assert reach[1, 1, 1, 0] == np.uint64(1)
        assert reach[0, 1, 0, 0] == np.uint64(0)  # no cross-axis leak

    def test_bulge_layout_three_prime_pam(self):
        _, (layout, _) = _compile_panel([Guide("g", "GAGTCCGAGCAGAAGAAGAA")])
        assert layout.b_off == 0
        assert len(layout.codes) == 20
        # NGG: all three PAM positions are exact and sit after the
        # protospacer, so they shift with the site-length delta.
        assert [(off, shifts) for off, _, shifts in layout.exact] == [
            (20, True),
            (21, True),
            (22, True),
        ]

    def test_bulge_layout_five_prime_pam(self):
        guide = Guide(
            "cas12a",
            "TTCGATCGATCGATCGATCG",
            pam=Pam("TTTV", "TTTV", "5prime", "AsCpf1"),
        )
        _, (layout, _) = _compile_panel([guide])
        assert layout.b_off == 4
        # A 5' PAM sits before the budgeted run: exact positions must
        # NOT shift when bulges change the protospacer's length.
        assert [(off, shifts) for off, _, shifts in layout.exact] == [
            (0, False),
            (1, False),
            (2, False),
            (3, False),
        ]

    def test_accept_boards_respect_per_delta_bounds(self):
        # Genome exactly one deleted site long: the delta=-1 reading
        # fits, the delta=0 and delta=+1 readings run off the end and
        # must be masked by the per-delta bounds clamp.
        guide = Guide("g", "GAGTCCGAGCAGAAGAAGAA")
        proto = guide.protospacer
        site = proto[:9] + proto[10:] + "AGG"
        genome = Sequence.from_text("chrTight", site)
        _, (group, _) = _compile_panel([guide])
        budget = SearchBudget(mismatches=0, rna_bulges=1, dna_bulges=1)
        lanes, (boards,) = _bulged_accept_boards(genome.codes, group, budget)
        deltas = {d - r for (_, r, d) in boards}
        assert deltas == {-1}
        for board in boards.values():
            assert lanes.starts[bitparallel._board_starts(board)].tolist() == [0]

    def test_accept_boards_empty_genome_shorter_than_shortest_site(self):
        guide = Guide("g", "GAGTCCGAGCAGAAGAAGAA")
        _, (group, _) = _compile_panel([guide])
        budget = SearchBudget(mismatches=0, rna_bulges=1, dna_bulges=1)
        codes = Sequence.from_text("chrTiny", "ACGT").codes
        _, (boards,) = _bulged_accept_boards(codes, group, budget)
        assert boards == {}


# -- bulged budgets run the panel natively: API regressions --------------------


class TestNoFallback:
    BUDGET = SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1)

    def test_panel_accepts_bulged_budget(self, library):
        panel = BitParallelPanel(list(library), self.BUDGET)
        assert panel.budget == self.BUDGET

    def test_bulged_kernel_runs_bitparallel_not_matcher(self, tiny_genome, library):
        hits = BitParallelPanel(library, self.BUDGET).find_hits(tiny_genome)
        assert hits == matcher.find_hits(tiny_genome, list(library), self.BUDGET)

    def test_mismatch_only_blocks_not_counted_bulged(
        self, tiny_genome, library, monkeypatch
    ):
        # A mismatch-only panel's blocks run the thermometer scan, never
        # the banded engine.
        def banded(*args, **kwargs):
            raise AssertionError("a mismatch-only block ran the banded engine")

        monkeypatch.setattr(bitparallel, "_bulged_reach", banded)
        budget = SearchBudget(mismatches=2)
        panel = BitParallelPanel(library, budget)
        assert panel.find_hits(tiny_genome) == matcher.find_hits(
            tiny_genome, list(library), budget
        )

    def test_bulged_count_report_rows_matches_matcher(self, library):
        for seed in (3, 5):
            genome = random_genome(900, seed=seed, name=f"chrRows{seed}")
            assert bitparallel.count_report_rows(
                genome, list(library), self.BUDGET
            ) == matcher.count_report_rows(genome, list(library), self.BUDGET)

    def test_count_report_rows_empty_panel(self, tiny_genome):
        assert bitparallel.count_report_rows(tiny_genome, [], self.BUDGET) == 0


class TestBulgedEquivalenceSweep:
    """Seeded kernel-vs-matcher sweep across every bulged budget shape."""

    SHAPES = [(1, 0), (0, 1), (1, 1), (2, 2)]

    @pytest.mark.parametrize("rna,dna", SHAPES)
    def test_seeded_sweep(self, rna, dna):
        from repro import sample_guides_from_genome

        for seed in (11, 12):
            genome = random_genome(1500, seed=seed, name=f"chrBulge{seed}")
            guides = sample_guides_from_genome(genome, 2, seed=seed + 50)
            budget = SearchBudget(mismatches=1, rna_bulges=rna, dna_bulges=dna)
            got = bitparallel.find_hits(genome, guides, budget)
            want = matcher.find_hits(genome, guides, budget)
            assert hit_multiset(got) == hit_multiset(want)
            assert got == want
