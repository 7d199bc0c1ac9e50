"""Property and regression suite for the bit-parallel kernel.

The kernel's contract is bit-identity with the naive oracle: same
hits, positions, strands, mismatch counts, and canonical dedupe order,
for every genome (including N runs and empty input), guide panel
(lengths 12-24 nt, either PAM side), mismatch budget 0-5, and both
strands. Hypothesis sweeps the randomized space; the directed classes
pin each bit-plane mechanism — word-boundary placements, prefix masks,
thermometer-plane carries at exactly the budget, the lane gather and
the padding bits of the last lane word — that a random sweep may visit
only by luck.

The ``slow``-marked soak at the bottom is the nightly fuzz pass:
50 seeded ~1 Mbp genomes plus 10 with mixed-PAM panels, kernel vs the
LUT matcher (itself pinned to the naive oracle by this file and
``tests/differential.py`` — the pure-Python oracle is infeasible at
Mbp scale), with the seed in every failure message for replay.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    NaiveSearcher,
    ParallelSearch,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.core import bitparallel, matcher
from repro.core.bitparallel import BitParallelPanel, _Lanes, _prefix_mask
from repro.errors import EngineError
from repro.genome.sequence import Sequence
from repro.grna.guide import Guide
from repro.grna.pam import Pam

from differential import adversarial_chunk_length
from helpers import hit_multiset

protospacer = st.text(alphabet="ACGT", min_size=12, max_size=24)
genome_text = st.text(alphabet="ACGTN", min_size=0, max_size=300)


def oracle(genome, guides, budget):
    return NaiveSearcher(budget).search(genome, guides)


# -- the randomized property sweep ---------------------------------------------


class TestPropertySweep:
    @settings(max_examples=40, deadline=None)
    @given(
        text=genome_text,
        protos=st.lists(protospacer, min_size=1, max_size=3),
        mismatches=st.integers(min_value=0, max_value=5),
    )
    def test_bit_identical_to_oracle(self, text, protos, mismatches):
        genome = Sequence.from_text("chr", text)
        guides = [Guide(f"g{i}", p) for i, p in enumerate(protos)]
        budget = SearchBudget(mismatches=mismatches)
        assert bitparallel.find_hits(genome, guides, budget) == oracle(
            genome, guides, budget
        )

    @settings(max_examples=20, deadline=None)
    @given(
        text=st.text(alphabet="ACGTN", min_size=30, max_size=200),
        proto=protospacer,
        n_start=st.integers(min_value=0, max_value=150),
        n_length=st.integers(min_value=1, max_value=12),
        mismatches=st.integers(min_value=0, max_value=3),
    )
    def test_n_runs_match_oracle(self, text, proto, n_start, n_length, mismatches):
        # A genome N matches only a pattern N — never a concrete base,
        # not even inside the mismatch budget's "anything goes" slack.
        n_start = min(n_start, len(text))
        spliced = text[:n_start] + "N" * n_length + text[n_start + n_length :]
        genome = Sequence.from_text("chrN", spliced)
        guides = [Guide("g", proto)]
        budget = SearchBudget(mismatches=mismatches)
        assert bitparallel.find_hits(genome, guides, budget) == oracle(
            genome, guides, budget
        )

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        mismatches=st.integers(min_value=0, max_value=3),
        chunk_choice=st.integers(min_value=0, max_value=4),
    )
    def test_chunk_boundary_straddles_match_oracle(
        self, seed, mismatches, chunk_choice
    ):
        # The kernel is windowed: drive it through the in-process chunked
        # executor with adversarial chunk lengths so sites straddle
        # boundaries.
        genome = random_genome(900, seed=seed, name="chrStraddle")
        guide = Guide("g", genome.text[40:60].replace("N", "A"))
        budget = SearchBudget(mismatches=mismatches)
        chunk = adversarial_chunk_length(guide.site_length - 1, len(genome), chunk_choice)
        streamed = ParallelSearch(
            [guide], budget, workers=1, chunk_length=chunk
        ).search(genome)
        assert streamed == oracle(genome, [guide], budget)


# -- directed placements -------------------------------------------------------


def _concrete(guide):
    return guide.concrete_target()


def _pam_free_filler(length):
    # A/T-only filler cannot satisfy an NGG PAM on either strand, so a
    # planted target's position is fully controlled.
    return (("AT" * length)[:length])


class TestDirectedPlacement:
    GUIDE = Guide("edge", "GAGTCCGAGCAGAAGAAGAA")

    def _plant(self, position, total=400):
        target = _concrete(self.GUIDE)
        filler = _pam_free_filler(total)
        return Sequence.from_text(
            "chrPlant", filler[:position] + target + filler[position + len(target) :]
        )

    def test_guide_at_position_zero(self):
        genome = self._plant(0)
        hits = bitparallel.find_hits(genome, [self.GUIDE], SearchBudget(mismatches=0))
        assert [h.start for h in hits] == [0]
        assert hits == oracle(genome, [self.GUIDE], SearchBudget(mismatches=0))

    def test_guide_ending_at_final_position(self):
        site = self.GUIDE.site_length
        genome = self._plant(400 - site)
        hits = bitparallel.find_hits(genome, [self.GUIDE], SearchBudget(mismatches=0))
        assert [h.start for h in hits] == [400 - site]
        assert hits == oracle(genome, [self.GUIDE], SearchBudget(mismatches=0))

    def test_genome_exactly_one_site_long(self):
        genome = Sequence.from_text("chrExact", _concrete(self.GUIDE))
        budget = SearchBudget(mismatches=1)
        hits = bitparallel.find_hits(genome, [self.GUIDE], budget)
        assert [h.start for h in hits] == [0]
        assert hits == oracle(genome, [self.GUIDE], budget)

    def test_genome_one_short_of_a_site(self):
        genome = Sequence.from_text("chrShort", _concrete(self.GUIDE)[:-1])
        assert (
            bitparallel.find_hits(genome, [self.GUIDE], SearchBudget(mismatches=5))
            == []
        )

    def test_empty_genome(self):
        genome = Sequence.from_text("chrEmpty", "")
        assert bitparallel.find_hits(genome, [self.GUIDE], SearchBudget()) == []

    @pytest.mark.parametrize(
        "position",
        # Sites placed against the uint64 lane structure: ending at bit
        # 63, straddling the 63/64 word boundary, starting at bit 64,
        # and the same shapes one word later.
        [64 - 23, 50, 64, 128 - 23, 110, 128],
    )
    def test_word_boundary_placements(self, position):
        genome = self._plant(position, total=256)
        budget = SearchBudget(mismatches=0)
        hits = bitparallel.find_hits(genome, [self.GUIDE], budget)
        assert [h.start for h in hits] == [position]
        assert hits == oracle(genome, [self.GUIDE], budget)

    @pytest.mark.parametrize("total", [63, 64, 65, 127, 128, 129])
    def test_genome_lengths_around_word_edges(self, total):
        site = self.GUIDE.site_length
        position = total - site
        genome = self._plant(position, total=total)
        budget = SearchBudget(mismatches=0)
        hits = bitparallel.find_hits(genome, [self.GUIDE], budget)
        assert [h.start for h in hits] == [position]

    def test_reverse_strand_placement(self):
        from repro import alphabet

        target_rc = alphabet.reverse_complement(_concrete(self.GUIDE))
        filler = _pam_free_filler(300)
        genome = Sequence.from_text(
            "chrRC", filler[:100] + target_rc + filler[100 + len(target_rc) :]
        )
        budget = SearchBudget(mismatches=0)
        hits = bitparallel.find_hits(genome, [self.GUIDE], budget)
        assert [(h.start, h.strand) for h in hits] == [(100, "-")]
        assert hits == oracle(genome, [self.GUIDE], budget)

    def test_five_prime_pam_guide(self):
        guide = Guide(
            "cas12a",
            "TTCGATCGATCGATCGATCG",
            pam=Pam("TTTV", "TTTV", "5prime", "AsCpf1"),
        )
        genome = Sequence.from_text(
            "chr5p", _pam_free_filler(40) + "TTTA" + guide.protospacer + _pam_free_filler(40)
        )
        budget = SearchBudget(mismatches=2)
        assert bitparallel.find_hits(genome, [guide], budget) == oracle(
            genome, [guide], budget
        )


# -- thermometer-plane carries at exactly the budget ---------------------------


class TestBudgetCarry:
    """The counting planes must accept k mismatches and reject k+1."""

    PROTO = "GAGTCCGAGCAGAAGAAGAA"

    def _site_with_mismatches(self, positions):
        site = list(self.PROTO)
        for p in positions:
            site[p] = {"A": "C", "C": "A", "G": "T", "T": "G"}[site[p]]
        return "".join(site) + "AGG"  # concrete NGG PAM

    def _genome_with_site(self, site):
        return Sequence.from_text("chrCarry", _pam_free_filler(64) + site + _pam_free_filler(64))

    @pytest.mark.parametrize("budget_k", [0, 1, 2, 3, 4, 5])
    def test_exactly_budget_mismatches_accepted(self, budget_k):
        guide = Guide("g", self.PROTO)
        site = self._site_with_mismatches(list(range(budget_k)))
        genome = self._genome_with_site(site)
        budget = SearchBudget(mismatches=budget_k)
        hits = bitparallel.find_hits(genome, [guide], budget)
        assert [h.mismatches for h in hits] == [budget_k]
        assert hits == oracle(genome, [guide], budget)

    @pytest.mark.parametrize("budget_k", [0, 1, 2, 3, 4])
    def test_budget_plus_one_rejected(self, budget_k):
        guide = Guide("g", self.PROTO)
        site = self._site_with_mismatches(list(range(budget_k + 1)))
        genome = self._genome_with_site(site)
        assert bitparallel.find_hits(genome, [guide], SearchBudget(mismatches=budget_k)) == []

    @pytest.mark.parametrize(
        "positions",
        # Carry stress: mismatches clustered at the first budgeted
        # position, the last, both ends, and adjacent pairs — the
        # shapes where a mis-ordered plane update double-counts.
        [[0], [19], [0, 19], [0, 1], [18, 19], [0, 9, 19]],
    )
    def test_mismatch_position_patterns(self, positions):
        guide = Guide("g", self.PROTO)
        site = self._site_with_mismatches(positions)
        genome = self._genome_with_site(site)
        budget = SearchBudget(mismatches=len(positions))
        hits = bitparallel.find_hits(genome, [guide], budget)
        assert [h.mismatches for h in hits] == [len(positions)]
        assert hits == oracle(genome, [guide], budget)

    def test_pam_mismatch_never_budgeted(self):
        # The PAM is exact: a site failing only its PAM must be
        # rejected even with a saturated mismatch budget.
        guide = Guide("g", self.PROTO)
        site = self.PROTO + "ATT"  # fails NGG
        genome = self._genome_with_site(site)
        assert bitparallel.find_hits(genome, [guide], SearchBudget(mismatches=5)) == []


# -- bitboard primitive regressions --------------------------------------------


class TestBitboardPrimitives:
    def _board_from_bits(self, bits, nwords=3):
        board = np.zeros(nwords, dtype=np.uint64)
        for b in bits:
            board[b // 64] |= np.uint64(1) << np.uint64(b % 64)
        return board

    def _bits_of(self, board):
        return {
            w * 64 + b
            for w in range(board.size)
            for b in range(64)
            if (int(board[w]) >> b) & 1
        }

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 192])
    def test_prefix_mask_sets_exactly_count_bits(self, count):
        mask = _prefix_mask(3, count)
        assert self._bits_of(mask) == set(range(count))


# -- lanes: the PAM-first filter and the gather --------------------------------


class TestLanes:
    def test_gather_reads_each_lane_at_its_start_plus_offset(self):
        # For offset u and mask m, bit i of the lane board is set iff
        # codes[starts[i] + u] satisfies m; a read past the block end
        # satisfies nothing, not even a pattern N.
        rng = np.random.default_rng(5)
        codes = rng.integers(0, 5, size=200).astype(np.uint8)
        starts = np.sort(rng.choice(200, size=90, replace=False)).astype(np.int64)
        lanes = _Lanes(codes, starts)
        masks = np.arange(1, 32, dtype=np.uint8)
        for offset in (0, 1, 7, 30, 63, 64, 150, 199, 200, 230):
            boards = lanes.boards(lanes.gather(offset), masks)
            assert boards.shape == (masks.size, 2)
            for mask, board in zip(masks.tolist(), boards):
                want = {
                    i
                    for i, start in enumerate(starts.tolist())
                    if start + offset < codes.size
                    and (mask >> int(codes[start + offset])) & 1
                }
                assert bitparallel._board_starts(board).tolist() == sorted(want), (
                    offset,
                    mask,
                )

    @pytest.mark.parametrize("count", [63, 64, 65])
    def test_padding_lanes_never_report(self, count):
        # A run of count + 1 Gs right after a 21-base lead gives exactly
        # `count` NGG lanes on the + strand (and none on the -, with no
        # C in the genome). A budget as long as the protospacer accepts
        # every lane, so a padding bit in the last lane word would
        # surface as an extra hit.
        guide = Guide("g", "GAGTCCGAGCAGAAGAAGAA")
        genome = Sequence.from_text("chrLanes", "A" * 21 + "G" * (count + 1) + "A" * 30)
        budget = SearchBudget(mismatches=20)
        hits = bitparallel.find_hits(genome, [guide], budget)
        assert [hit.start for hit in hits] == list(range(count))
        assert hits == oracle(genome, [guide], budget)
        assert bitparallel.count_report_rows(genome, [guide], budget) == count

    @pytest.mark.parametrize("count", [63, 64, 65])
    def test_padding_lanes_never_report_bulged(self, count):
        # With one bulge each way the GG may sit one base either side,
        # so a run of `count` Gs gives `count` lanes.
        guide = Guide("g", "GAGTCCGAGCAGAAGAAGAA")
        genome = Sequence.from_text("chrLanes", "A" * 21 + "G" * count + "A" * 30)
        budget = SearchBudget(mismatches=20, rna_bulges=1, dna_bulges=1)
        _, (group, _) = bitparallel._compile_panel([guide])
        assert bitparallel._bulged_lanes(genome.codes, group, budget)[0].count == count
        assert bitparallel.find_hits(genome, [guide], budget) == matcher.find_hits(
            genome, [guide], budget
        )
        assert bitparallel.count_report_rows(
            genome, [guide], budget
        ) == matcher.count_report_rows(genome, [guide], budget)

    @pytest.mark.parametrize(
        "budget",
        [
            SearchBudget(mismatches=2),
            SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1),
        ],
        ids=["mm2", "bulged"],
    )
    def test_hits_decode_from_codes_not_text(self, budget, monkeypatch):
        # find_hits cuts each site out of the codes; decoding the whole
        # block to text would cost more than the scan of a sparse panel.
        genome = random_genome(3000, seed=21, name="chrCodes")
        guides = list(sample_guides_from_genome(genome, 3, seed=4))
        want = oracle(genome, guides, budget)
        assert want

        def no_text(self):
            raise AssertionError("find_hits decoded the whole block")

        monkeypatch.setattr(Sequence, "text", property(no_text))
        assert bitparallel.find_hits(genome, guides, budget) == want


# -- API contract --------------------------------------------------------------


class TestKernelApi:
    def test_bulged_budget_served_natively(self, small_genome, library):
        # A bulged budget runs the banded bit-parallel engine and still
        # agrees with the reference matcher bit for bit.
        budget = SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1)
        hits = BitParallelPanel(library, budget).find_hits(small_genome)
        assert hits == matcher.find_hits(small_genome, list(library), budget)

    def test_panel_accepts_bulged_budget(self, library):
        budget = SearchBudget(mismatches=1, dna_bulges=1)
        panel = BitParallelPanel(library, budget)
        assert panel.budget == budget

    def test_panel_rejects_empty_guides(self):
        with pytest.raises(EngineError, match="at least one guide"):
            BitParallelPanel([], SearchBudget())

    def test_panel_reusable_across_blocks(self, library):
        # One compiled panel, many blocks — the in-process executor's usage.
        budget = SearchBudget(mismatches=2)
        panel = BitParallelPanel(library, budget)
        for seed in (1, 2, 3):
            block = random_genome(700, seed=seed, name=f"blk{seed}")
            assert panel.find_hits(block) == matcher.find_hits(
                block, list(library), budget
            )

    def test_first_scan_imports_no_module(self):
        # A pool forks fresh workers for every search, each scanning
        # only a few shards, so a module the kernel imports on first use
        # (numpy.unique pulls in numpy.ma) is paid again on every search.
        probe = textwrap.dedent(
            """
            import sys
            from repro import SearchBudget, random_genome, sample_guides_from_genome
            from repro.core.bitparallel import BitParallelPanel

            genome = random_genome(5000, seed=3, name="chrProbe")
            guides = sample_guides_from_genome(genome, 3, seed=4)
            for budget in (SearchBudget(mismatches=2), SearchBudget(1, 1, 1)):
                panel = BitParallelPanel(guides, budget)
                before = set(sys.modules)
                panel.find_hits(genome)
                panel.count_report_rows(genome)
                print(sorted(set(sys.modules) - before))
            """
        )
        src = str(Path(bitparallel.__file__).resolve().parents[2])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split("\n")[:2] == ["[]", "[]"]

    def test_count_report_rows_matches_matcher(self, small_genome, library):
        budget = SearchBudget(mismatches=2)
        assert bitparallel.count_report_rows(
            small_genome, list(library), budget
        ) == matcher.count_report_rows(small_genome, list(library), budget)


# -- nightly fuzz soak (slow; excluded from the per-push run) ------------------


@pytest.mark.slow
class TestSoak:
    """50-seed kernel-vs-reference sweep on ~1 Mbp genomes.

    The reference here is the LUT matcher, not the pure-Python naive
    oracle: at Mbp scale the oracle is infeasible (hours per seed),
    and the matcher is itself pinned bit-identical to the oracle by
    the kilobase-scale suites above. Every fifth seed runs a bulged
    budget (rotating through the RNA-only / DNA-only / mixed shapes)
    so the diagonal-band engine soaks at Mbp scale too — the matcher's
    banded DP is the reference there as well. Each failure message
    carries the seed, so a red run replays with a one-line test.
    """

    GENOME_LENGTH = 1_000_000

    #: Bulged shapes rotated through seeds 0, 5, 10, ... — RNA-only,
    #: DNA-only, and the mixed shape, all with a live mismatch budget.
    BULGE_SHAPES = ((1, 0), (0, 1), (1, 1))

    @classmethod
    def budget_for_seed(cls, seed):
        if seed % 5 != 0:
            return SearchBudget(mismatches=2)
        rna, dna = cls.BULGE_SHAPES[(seed // 5) % len(cls.BULGE_SHAPES)]
        return SearchBudget(mismatches=1, rna_bulges=rna, dna_bulges=dna)

    @pytest.mark.parametrize("seed", range(50))
    def test_seeded_mbp_sweep(self, seed):
        genome = random_genome(
            self.GENOME_LENGTH, seed=seed, name=f"chrSoak{seed}"
        )
        guides = sample_guides_from_genome(genome, 3, seed=seed + 1000)
        budget = self.budget_for_seed(seed)
        got = bitparallel.find_hits(genome, guides, budget)
        want = matcher.find_hits(genome, guides, budget)
        assert hit_multiset(got) == hit_multiset(want), (
            f"soak seed {seed}: span multisets diverge under {budget} "
            f"(replay: test_seeded_mbp_sweep[{seed}])"
        )
        assert got == want, (
            f"soak seed {seed}: ordered hit lists diverge under {budget} "
            f"(replay: test_seeded_mbp_sweep[{seed}])"
        )


@pytest.mark.slow
class TestSoakMixedPam:
    """10-seed mixed-PAM sweep on ~1 Mbp genomes, kernel vs the matcher.

    Every panel mixes an NGG, an NRG and a 5'-PAM TTTV guide, so three
    PAM layouts — six lane groups — share each block, where the seeds
    of :class:`TestSoak` run NGG panels only. Budgets follow
    :meth:`TestSoak.budget_for_seed`, so seeds 50 and 55 run bulged.
    """

    PAMS = ("NGG", "NRG", "TTTV")

    @pytest.mark.parametrize("seed", range(50, 60))
    def test_seeded_mixed_pam_sweep(self, seed):
        genome = random_genome(
            TestSoak.GENOME_LENGTH, seed=seed, name=f"chrMixed{seed}"
        )
        guides = [
            guide
            for index, pam in enumerate(self.PAMS)
            for guide in sample_guides_from_genome(
                genome, 1, pam=pam, seed=seed + 1000 + index, name_prefix=pam.lower()
            )
        ]
        budget = TestSoak.budget_for_seed(seed)
        got = bitparallel.find_hits(genome, guides, budget)
        want = matcher.find_hits(genome, guides, budget)
        assert hit_multiset(got) == hit_multiset(want), (
            f"mixed-PAM soak seed {seed}: span multisets diverge under {budget} "
            f"(replay: test_seeded_mixed_pam_sweep[{seed}])"
        )
        assert got == want, (
            f"mixed-PAM soak seed {seed}: ordered hit lists diverge under {budget} "
            f"(replay: test_seeded_mixed_pam_sweep[{seed}])"
        )
