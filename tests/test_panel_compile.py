"""The array panel compile against the per-symbol reference.

:class:`~repro.core.bitparallel.BitParallelPanel` encodes each (PAM,
guide length) bucket as one code array and works out each strand's
lane layout once per bucket. ``panel_reference.py`` keeps the loop it
replaced. Both must give the same per-pattern (guide, strand, length)
list and the same lane groups: length, ``b_off``, exact positions,
member indices in pattern order and the members' base codes, with the
groups in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitparallel import BitParallelPanel
from repro.core.compiler import SearchBudget
from repro.grna.guide import Guide
from repro.grna.pam import PAM_CATALOG, Pam

from panel_reference import compile_panel

#: Every preset, a custom all-N PAM, and a 5' CCN, whose + strand
#: layout is NGG's − strand layout.
PAMS = tuple(PAM_CATALOG.values()) + (
    Pam("NNN", "NNN", "3prime", "custom"),
    Pam("CCN", "CCN", "5prime", "custom"),
)

BUDGETS = (
    SearchBudget(mismatches=3),
    SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=2),
)


def random_guides(rng, count, pams, lengths):
    return [
        Guide(
            f"g{index}",
            "".join(rng.choice(list("ACGT"), size=int(rng.choice(lengths)))),
            pams[int(rng.integers(len(pams)))],
            min_length=1,
        )
        for index in range(count)
    ]


def assert_same_compile(panel, guides):
    patterns, groups = compile_panel(guides)
    assert panel._patterns == patterns
    assert len(panel._groups) == len(groups)
    for got, want in zip(panel._groups, groups):
        assert (got.total, got.b_off, got.exact, got.indices) == (
            want.total,
            want.b_off,
            want.exact,
            want.indices,
        )
        assert got.codes.dtype == want.codes.dtype
        assert got.codes.flags.c_contiguous
        np.testing.assert_array_equal(got.codes, want.codes)


@pytest.mark.parametrize("budget", BUDGETS, ids=["mm3", "bulged"])
@pytest.mark.parametrize("length", [16, 20, 24])
@pytest.mark.parametrize("pam", PAMS, ids=[pam.name for pam in PAMS])
def test_one_bucket_matches_reference(pam, length, budget):
    guides = random_guides(np.random.default_rng(length), 5, [pam], [length])
    assert_same_compile(BitParallelPanel(guides, budget), guides)


@pytest.mark.parametrize("budget", BUDGETS, ids=["mm3", "bulged"])
def test_mixed_panel_matches_reference(budget):
    guides = random_guides(np.random.default_rng(7), 40, PAMS, [16, 20, 24])
    assert_same_compile(BitParallelPanel(guides, budget), guides)


def test_ccn_five_prime_shares_ngg_reverse_group():
    ngg, ccn = PAM_CATALOG["NGG"], PAMS[-1]
    guides = [
        Guide("a", "ACGTACGTACGTACGTACGT", ngg),
        Guide("b", "TTTTACGTACGTACGTACGG", ccn),
    ]
    panel = BitParallelPanel(guides, BUDGETS[0])
    assert_same_compile(panel, guides)
    # rc(CCN) is NGG and trails on the − strand: a+ shares with b−, and
    # a− with b+.
    assert [group.indices for group in panel._groups] == [(0, 3), (1, 2)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=12),
    pams=st.lists(st.sampled_from(PAMS), min_size=1, max_size=4),
    lengths=st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=3),
)
def test_random_panels_match_reference(seed, count, pams, lengths):
    guides = random_guides(np.random.default_rng(seed), count, pams, lengths)
    assert_same_compile(BitParallelPanel(guides, BUDGETS[0]), guides)
