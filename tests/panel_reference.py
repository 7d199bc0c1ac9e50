"""The kernel's per-symbol panel compile, kept as a test reference.

:class:`~repro.core.bitparallel.BitParallelPanel` compiles a panel from
code arrays, one ``(guides, length)`` array per (PAM, guide length)
bucket. This module is the loop it replaced: each guide strand is
flattened symbol by symbol into 5-bit IUPAC code masks, split into its
budgeted run and exact positions, and sorted into lane groups keyed by
length and exact positions. The strand segments are spelled out here
case by case rather than read from
:func:`repro.core.compiler.site_offsets`, so the reference does not
share the geometry it checks.
"""

from dataclasses import dataclass

import numpy as np

from repro import alphabet
from repro.core.bitparallel import _BASE_MASKS, _LaneGroup

_CODE_MASKS = {symbol: alphabet.iupac_code_mask(symbol) for symbol in alphabet.IUPAC}
_BASE_CODE = {int(mask): code for code, mask in enumerate(_BASE_MASKS)}


@dataclass(frozen=True)
class StrandPattern:
    """One guide strand flattened into per-position IUPAC code masks."""

    guide: object
    strand: str
    masks: tuple  # 5-bit genome-code mask per pattern position
    budgeted: tuple  # does this position spend the mismatch budget?

    @property
    def total(self):
        return len(self.masks)


@dataclass(frozen=True)
class BulgeLayout:
    """One strand pattern split into its budgeted run and exact positions."""

    b_off: int
    budgeted_masks: tuple
    exact: tuple


def segments(guide, strand):
    """``(text, budgeted)`` segments of one strand, in + strand order."""
    protospacer = (guide.protospacer, True)
    pam = (guide.pam.pattern, False)
    forward = [protospacer, pam] if guide.pam.side == "3prime" else [pam, protospacer]
    if strand == "+":
        return forward
    return [
        (alphabet.reverse_complement(text), budgeted)
        for text, budgeted in reversed(forward)
    ]


def compile_strand(guide, strand):
    masks = []
    budgeted = []
    for text, is_budgeted in segments(guide, strand):
        masks.extend(_CODE_MASKS[symbol] for symbol in text)
        budgeted.extend([is_budgeted] * len(text))
    return StrandPattern(guide, strand, tuple(masks), tuple(budgeted))


def bulge_layout(pattern):
    b_off = pattern.budgeted.index(True)
    budgeted_masks = []
    exact = []
    for offset, (mask, is_budgeted) in enumerate(zip(pattern.masks, pattern.budgeted)):
        if is_budgeted:
            budgeted_masks.append(mask)
        else:
            exact.append((offset, mask, offset > b_off))
    return BulgeLayout(b_off, tuple(budgeted_masks), tuple(exact))


def lane_groups(patterns):
    """Sort *patterns* into lane groups, keyed by length and exact positions."""
    members = {}
    for index, pattern in enumerate(patterns):
        layout = bulge_layout(pattern)
        members.setdefault((pattern.total, layout.exact), []).append((index, layout))
    return tuple(
        _LaneGroup(
            total=total,
            b_off=entries[0][1].b_off,
            exact=exact,
            indices=tuple(index for index, _ in entries),
            codes=np.array(
                [[_BASE_CODE[mask] for mask in layout.budgeted_masks] for _, layout in entries],
                dtype=np.intp,
            ).T.copy(),
        )
        for (total, exact), entries in members.items()
    )


def compile_panel(guides):
    """``(patterns, groups)`` as the per-symbol compile builds them.

    ``patterns`` lists ``(guide, strand, length)`` per strand pattern,
    guide by guide, + before −.
    """
    strand_patterns = [
        compile_strand(guide, strand) for guide in guides for strand in ("+", "-")
    ]
    patterns = tuple(
        (pattern.guide, pattern.strand, pattern.total) for pattern in strand_patterns
    )
    return patterns, lane_groups(strand_patterns)
