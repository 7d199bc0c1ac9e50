"""Bit-parallel (Shift-And) off-target matching kernel.

This is the dense, hardware-friendly execution form the automata
literature arrives at when it trades compile time for symbol-rate: the
mismatch-counting grid of :mod:`repro.core.hamming` collapses into a
handful of machine-word bitboards, and one numpy pass over packed
words evaluates 64 candidate starts at once. It is the one functional
kernel every execution path runs, for **every** budget shape —
mismatch-only budgets run the thermometer-plane scan, bulged budgets
run the diagonal-band engine below. Like the Cas-OFFinder baseline, it
checks the PAM first and counts mismatches only at the starts whose
PAM matches. The byte-wise LUT scan of :mod:`repro.core.matcher` stays
only as an independent reference for the differential tests and the
baselines.

Bit-plane layout
----------------
The panel's strand patterns (protospacer + PAM segments, already
oriented by :func:`repro.core.compiler._segments`) fall into *lane
groups*: patterns of one length whose exact (PAM) positions sit at the
same offsets with the same masks. That is one group per PAM layout and
strand, whatever the protospacers, and a group's patterns share their
budgeted positions by construction.

In each genome block of ``n`` symbols, a group tests its exact
positions once, straight from the codes (for a bulged budget, the
union over length deltas of the per-delta PAM-and-bounds checks
below). The starts that pass are the group's *lanes*: lane ``i`` is
start ``starts[i]``, and a *lane board* is a little-endian ``uint64``
bitboard whose word ``w`` holds lanes ``[64w, 64w + 64)``. NGG keeps
about one start in sixteen of a GC-0.41 genome; a PAM that admits
every start (a custom ``N``) keeps them all and runs the same way.

Pattern offset ``u``'s *lane code boards* — one per symbol code (A, C,
G, T, N), bit ``i`` set when ``codes[starts[i] + u]`` carries that
code — come from one gather, ``codes[starts + u]``. A read past the
block end sets no bit in any of them, so it matches nothing. A pattern
position's *match board* is the OR of the code boards its 5-bit IUPAC
mask selects (:func:`repro.alphabet.iupac_code_mask` — so a genome
``N`` matches only a pattern ``N``, exactly as the oracle counts it).
Only a few boards per offset are alive at a time, so the temporaries
stay O(lanes).

Counting uses thermometer bit-planes, one plane per mismatch-budget
level, each stacked over the group as one ``(patterns, lane_words)``
array: row ``p`` of ``ge[j]`` has bit ``i`` set when pattern ``p`` has
accumulated at least ``j + 1`` mismatches at lane ``i``, and one more
plane (``exceed``) saturates at budget + 1. Folding budgeted position
``t``'s mismatch boards ``x`` — every pattern's, stacked the same way
— into the counters is ``k + 1`` array ops for the whole group::

    exceed |= ge[k-1] & x
    ge[j]  |= ge[j-1] & x      # j = k-1 .. 1
    ge[0]  |= x

A lane is a hit of pattern ``p`` when its bit in ``exceed[p]`` is
clear (its PAM already matched), and its exact mismatch count is the
number of ``ge`` planes with its bit set (the thermometer cannot
saturate below ``exceed``), so hits carry the same counts the oracle
reports, for free. Hits map back to genome starts through ``starts``.

Diagonal bulge bands
--------------------
A bulged budget (``r`` RNA bulges, ``d`` DNA bulges, ``k``
mismatches) runs a Wu-Manber-style banded engine instead, over the
same lanes: one Shift-And state plane per ``(rna, dna, mismatch)``
coordinate of :mod:`repro.core.bulge`'s grid, held as one
``(patterns, r+1, d+1, k+1, lane_words)`` array of lane boards that
stacks the group's patterns as the thermometer does. A cell ``(r',
d')`` always sits on diagonal band ``d' - r'`` — its genome offset is
the pattern position plus that band — so aligning pattern position
``i`` needs the match boards of only ``r + d + 1`` offsets, gathered
per cell by band index. Each offset's code boards are gathered once
and serve every band and pattern that reads them; a cell whose offset
would fall before the protospacer (``i + band < 0``) reads an
all-zero board. Each step folds three transition families, in exactly
:func:`repro.core.bulge._build_grid`'s order and with its
interior-only rules:

* **DNA bulge** (:func:`_band_transfer`): band ``d'`` feeds band
  ``d' + 1`` within the layer, chained ascending so bulges can stack,
  only between interior pattern positions (``1 <= i <= m - 1``);
* **match / mismatch**: AND with the band-aligned match board advances
  the layer; ANDNOT advances it one mismatch plane up (planes above
  the budget simply do not exist — exceeding paths fall off the
  array, which is the saturation rule);
* **RNA bulge**: the layer advances without consuming a genome symbol
  — plane ``(r', d')`` ORs into ``(r' + 1, d')`` — for interior
  positions only (``0 < i < m - 1``).

Acceptance masks each final plane by its delta's lane board — the
lanes whose exact-segment (PAM) positions match when those after the
protospacer shift by ``delta = d' - r'``, and whose site of length
``total + delta`` ends inside the block — then keeps the best profile
per (start, delta) under the canonical order (fewest total edits,
then fewest bulges, then fewest mismatches), which is bit-identical
to the banded-DP matcher and the naive oracle.

Block boundaries
----------------
The kernel is windowed, so blocks compose exactly like genome chunks:
scan blocks that overlap by ``max_site_length - 1`` symbols (the
carry — every site straddling a boundary lies wholly inside one block;
for bulged budgets the longest site is ``site_length + dna_bulges``)
and drop hits whose end falls inside a block's overlapped prefix.
:class:`~repro.core.parallel.ParallelSearch` drives this kernel
through exactly that rule, so every chunked path stays bit-identical
to the whole-genome scan and to the :class:`~repro.core.reference`
oracle — the property ``tests/differential.py`` pins across the full
engine x genome x panel x budget grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence as SequenceType, Tuple

import numpy as np

from .. import alphabet
from ..errors import EngineError
from ..genome.sequence import Sequence
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit, dedupe_hits
from .compiler import SearchBudget, _segments

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The mask of a pattern ``N``: every genome code satisfies it.
_ANY_CODE = (1 << alphabet.NUM_CODES) - 1

#: What a lane reads past the block end: a code no 5-bit mask selects.
_PAST_END = alphabet.NUM_CODES

#: A pattern's exact positions: ``(offset, mask, shifts with delta)``.
_Exact = Tuple[Tuple[int, int, bool], ...]

#: The 5-bit genome-code mask of every IUPAC pattern symbol.
_CODE_MASKS = {symbol: alphabet.iupac_code_mask(symbol) for symbol in alphabet.IUPAC}


def find_hits(
    genome: Sequence, guides: Iterable[Guide], budget: SearchBudget
) -> list[OffTargetHit]:
    """One-shot bit-parallel scan (API parity with ``matcher.find_hits``)."""
    return BitParallelPanel(guides, budget).find_hits(genome)


# -- pattern compilation -------------------------------------------------------


@dataclass(frozen=True)
class _StrandPattern:
    """One guide strand flattened into per-position IUPAC code masks."""

    guide: Guide
    strand: str
    masks: tuple[int, ...]  # 5-bit genome-code mask per pattern position
    budgeted: tuple[bool, ...]  # does this position spend the mismatch budget?

    @property
    def total(self) -> int:
        return len(self.masks)


def _compile_strand(guide: Guide, strand: str) -> _StrandPattern:
    masks: list[int] = []
    budgeted: list[bool] = []
    for segment in _segments(guide, reverse=strand == "-"):
        masks.extend(_CODE_MASKS[symbol] for symbol in segment.text)
        budgeted.extend([segment.budgeted] * len(segment.text))
    return _StrandPattern(
        guide=guide, strand=strand, masks=tuple(masks), budgeted=tuple(budgeted)
    )


@dataclass(frozen=True)
class _BulgeLayout:
    """One strand pattern split into its budgeted run and exact positions.

    ``_segments`` guarantees exactly one budgeted segment (the
    protospacer), so the budgeted positions form one contiguous run at
    offset ``b_off``; exact (PAM) positions after that run shift with
    a bulged site's length delta, positions before it do not. The
    pattern's length and exact positions key its lane group.
    """

    b_off: int  # pattern offset of the budgeted run
    budgeted_masks: tuple[int, ...]
    exact: _Exact


def _bulge_layout(pattern: _StrandPattern) -> _BulgeLayout:
    b_off = pattern.budgeted.index(True)
    budgeted_masks: list[int] = []
    exact: list[tuple[int, int, bool]] = []
    for offset, (mask, is_budgeted) in enumerate(zip(pattern.masks, pattern.budgeted)):
        if is_budgeted:
            budgeted_masks.append(mask)
        else:
            exact.append((offset, mask, offset > b_off))
    return _BulgeLayout(
        b_off=b_off, budgeted_masks=tuple(budgeted_masks), exact=tuple(exact)
    )


@dataclass(frozen=True)
class _LaneGroup:
    """Strand patterns that keep the same lanes in every block.

    Patterns of one length whose exact positions carry the same masks
    admit exactly the same starts, so one exact-position filter serves
    the whole group. They share the budgeted run ``[b_off, b_off +
    len(columns))`` too; ``columns[t]`` holds the distinct masks at its
    ``t``-th position and, per pattern, the index of that pattern's mask
    among them.
    """

    total: int
    b_off: int
    exact: _Exact
    indices: tuple[int, ...]  # the members' indices in the panel's pattern list
    columns: tuple[tuple[np.ndarray, np.ndarray], ...]


def _lane_groups(patterns: SequenceType[_StrandPattern]) -> tuple[_LaneGroup, ...]:
    """Sort *patterns* into lane groups, keyed by length and exact positions."""
    members: Dict[Tuple[int, _Exact], List[Tuple[int, _BulgeLayout]]] = {}
    for index, pattern in enumerate(patterns):
        layout = _bulge_layout(pattern)
        members.setdefault((pattern.total, layout.exact), []).append((index, layout))
    groups = []
    for (total, exact), entries in members.items():
        columns = []
        for column in zip(*(layout.budgeted_masks for _, layout in entries)):
            distinct = sorted(set(column))
            inverse = [distinct.index(mask) for mask in column]
            columns.append((np.array(distinct, dtype=np.uint8), np.array(inverse)))
        groups.append(
            _LaneGroup(
                total=total,
                b_off=entries[0][1].b_off,
                exact=exact,
                indices=tuple(index for index, _ in entries),
                columns=tuple(columns),
            )
        )
    return tuple(groups)


# -- bitboard primitives -------------------------------------------------------


def _prefix_mask(nwords: int, count: int) -> np.ndarray:
    """Bitboard with exactly bits ``[0, count)`` set."""
    mask = np.zeros(nwords, dtype=np.uint64)
    whole, rem = divmod(count, 64)
    mask[:whole] = _ALL_ONES
    if rem and whole < nwords:
        mask[whole] = np.uint64((1 << rem) - 1)
    return mask


def _board_starts(board: np.ndarray) -> np.ndarray:
    """Sorted positions of the set bits of a little-endian bitboard."""
    hot_words = np.flatnonzero(board)
    if hot_words.size == 0:
        return np.zeros(0, dtype=np.int64)
    lanes = np.unpackbits(
        board[hot_words].view(np.uint8).reshape(-1, 8), axis=1, bitorder="little"
    ).astype(bool)
    return (hot_words[:, None] * 64 + np.arange(64, dtype=np.int64)[None, :])[lanes]


def _bits_at(board: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Bit ``positions[i]`` of a flat little-endian *board*, as 0/1."""
    shifts = (positions & 7).astype(np.uint8)
    return (board.view(np.uint8)[positions >> 3] >> shifts) & 1


def _popcount(board: np.ndarray) -> int:
    """Total number of set bits in *board*."""
    bitwise_count = getattr(np, "bitwise_count", None)
    if bitwise_count is not None:
        return int(bitwise_count(board).sum())
    return int(np.unpackbits(board.view(np.uint8)).sum())


def _exact_filter(
    codes: np.ndarray, exact: _Exact, limit: int, delta: int
) -> np.ndarray:
    """Bool per start ``[0, limit)``: do all exact positions match?

    Exact positions after the budgeted run sit *delta* further on (a
    bulged site's length delta). One that lands before the site start
    admits no start: only an RNA budget beyond the protospacer's
    interior gets there, and those bands are unreachable.
    """
    ok = np.ones(limit, dtype=bool)
    for offset, mask, shifts in exact:
        position = offset + (delta if shifts else 0)
        if position < 0:
            return np.zeros(limit, dtype=bool)
        if mask != _ANY_CODE:
            window = codes[position : position + limit]
            ok &= ((np.uint8(mask) >> window) & 1).view(bool)
    return ok


class _Lanes:
    """The starts of one block that a lane group keeps.

    Lane ``i`` is start ``starts[i]`` (ascending); a lane board holds
    lane ``i`` at bit ``i % 64`` of word ``i // 64``.
    """

    def __init__(self, codes: np.ndarray, starts: np.ndarray) -> None:
        self.codes = codes
        self.starts = starts
        self.count = int(starts.size)
        self.nwords = (self.count + 63) // 64

    def gather(self, offset: int) -> np.ndarray:
        """``codes[starts[i] + offset]`` per lane ``i``, one gather.

        A read past the block end (a suffix of the lanes, as the starts
        ascend) gives ``_PAST_END``, which satisfies no mask.
        """
        inside = int(self.starts.searchsorted(self.codes.size - offset))
        gathered = self.codes[offset:][self.starts[:inside]]
        if inside == self.count:
            return gathered
        return np.concatenate(
            [gathered, np.full(self.count - inside, _PAST_END, dtype=np.uint8)]
        )

    def boards(self, gathered: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Lane boards of gathered codes, one per mask.

        *gathered* holds one code per lane along its last axis (one
        offset, or a stack of them); the result has shape
        ``(len(masks),) + gathered.shape[:-1] + (nwords,)``, and bit
        ``i`` of ``[r, ...]`` is set iff ``gathered[..., i]`` satisfies
        the 5-bit ``masks[r]``. Padding bits past the last lane stay
        clear.
        """
        shape = masks.shape + gathered.shape[:-1]
        bits = np.zeros(shape + (self.nwords * 64,), dtype=np.uint8)
        column = masks.reshape(masks.shape + (1,) * gathered.ndim)
        np.bitwise_and(column >> gathered, 1, out=bits[..., : self.count])
        return np.packbits(bits, axis=-1, bitorder="little").view(np.uint64)


# -- the mismatch-only scan ----------------------------------------------------


def _thermometer(
    codes: np.ndarray, group: _LaneGroup, max_mismatches: int
) -> tuple[_Lanes, np.ndarray, np.ndarray]:
    """``(lanes, hit, ge)`` of every pattern of *group* in the block.

    ``hit[p]`` is pattern ``p``'s lane board of hits; ``ge[j, p]`` its
    thermometer plane of at least ``j + 1`` mismatches.
    """
    valid = max(codes.size - group.total + 1, 0)
    lanes = _Lanes(codes, np.flatnonzero(_exact_filter(codes, group.exact, valid, 0)))
    shape = (len(group.indices), lanes.nwords)
    exceed = np.zeros(shape, dtype=np.uint64)
    ge = np.zeros((max_mismatches,) + shape, dtype=np.uint64)
    if lanes.count:
        for t, (masks, inverse) in enumerate(group.columns):
            miss = ~lanes.boards(lanes.gather(group.b_off + t), masks)[inverse]
            if max_mismatches == 0:
                exceed |= miss
                continue
            exceed |= ge[max_mismatches - 1] & miss
            for j in range(max_mismatches - 1, 0, -1):
                ge[j] |= ge[j - 1] & miss
            ge[0] |= miss
    return lanes, ~exceed & _prefix_mask(lanes.nwords, lanes.count), ge


# -- the diagonal-band bulged scan ---------------------------------------------


def _band_transfer(reach: np.ndarray) -> None:
    """In-place DNA-bulge closure of one pattern layer.

    *reach* has shape ``(..., rna + 1, dna + 1, mm + 1, nwords)``. Band
    ``d`` feeds band ``d + 1``, chained ascending so one layer can
    spend several DNA bulges back-to-back — the chained any-symbol
    edges of :func:`repro.core.bulge._build_grid`. The genome offset
    step is implicit: cell ``(r, d)`` always reads offset
    ``i + d - r``, so moving to ``d + 1`` *is* consuming one symbol.
    """
    for d in range(reach.shape[-3] - 1):
        reach[..., d + 1, :, :] |= reach[..., d, :, :]


def _bulged_lanes(
    codes: np.ndarray, group: _LaneGroup, budget: SearchBudget
) -> tuple[_Lanes, Dict[int, np.ndarray]]:
    """The group's lanes under a bulged budget, and each delta's lane board.

    A start is a lane when, for some delta, a site of length ``total +
    delta`` ends inside the block and its exact (PAM) positions match;
    ``pam[delta]`` keeps the lanes where that holds for *delta* —
    the matcher's per-delta ``pam_ok`` arrays, compressed to lanes.
    """
    n = codes.size
    ok = {
        delta: _exact_filter(
            codes, group.exact, min(max(n - (group.total + delta) + 1, 0), n), delta
        )
        for delta in range(-budget.rna_bulges, budget.dna_bulges + 1)
    }
    union = np.zeros(max(starts.size for starts in ok.values()), dtype=bool)
    for starts in ok.values():
        union[: starts.size] |= starts
    lanes = _Lanes(codes, np.flatnonzero(union))
    pam = {}
    for delta, starts in ok.items():
        inside = int(lanes.starts.searchsorted(starts.size))
        bits = np.zeros(lanes.nwords * 64, dtype=bool)
        bits[:inside] = starts[lanes.starts[:inside]]
        pam[delta] = np.packbits(bits, bitorder="little").view(np.uint64)
    return lanes, pam


def _bulged_reach(lanes: _Lanes, group: _LaneGroup, budget: SearchBudget) -> np.ndarray:
    """Final-layer reachability planes ``reach[p, r, d, j]`` over the lanes.

    Bit ``i`` of ``reach[p, r, d, j]`` is set when some alignment of
    pattern ``p``'s budgeted segment starting at genome position
    ``starts[i] + b_off`` uses exactly ``j`` mismatches, ``r`` RNA
    bulges and ``d`` DNA bulges — the grid of
    :func:`repro.core.bulge._build_grid`, one lane board per state row.
    """
    rna, dna, mm = budget.rna_bulges, budget.dna_bulges, budget.mismatches
    m = len(group.columns)
    reach = np.zeros(
        (len(group.indices), rna + 1, dna + 1, mm + 1, lanes.nwords), dtype=np.uint64
    )
    reach[:, 0, 0, 0] = _ALL_ONES
    # Gather index: cell (r, d) reads the board of its band d - r
    # (offset by +rna into the stacked board array).
    band_index = (np.arange(dna + 1)[None, :] - np.arange(rna + 1)[:, None]) + rna
    # Row rna + band holds the codes band reads at the current step, at
    # offset b_off + i + band. Each offset is gathered once, as the
    # window slides one offset per step; a band whose offset falls
    # before the protospacer (i + band < 0) reads _PAST_END, which
    # matches nothing.
    window = np.full((rna + dna + 1, lanes.count), _PAST_END, dtype=np.uint8)
    for band in range(dna + 1):
        window[rna + band] = lanes.gather(group.b_off + band)
    for i, (masks, inverse) in enumerate(group.columns):
        if i:
            window[:-1] = window[1:]
            window[-1] = lanes.gather(group.b_off + i + dna)
        if dna and 1 <= i <= m - 1:
            _band_transfer(reach)
        boards = lanes.boards(window, masks)[inverse]
        aligned = boards[:, band_index][:, :, :, None, :]
        nxt = reach & aligned
        if mm:
            nxt[:, :, :, 1:] |= reach[:, :, :, :mm] & ~aligned
        if rna and 0 < i < m - 1:
            nxt[:, 1:] |= reach[:, :rna]
        reach = nxt
    return reach


def _bulged_accept_boards(
    codes: np.ndarray, group: _LaneGroup, budget: SearchBudget
) -> tuple[_Lanes, List[Dict[Tuple[int, int, int], np.ndarray]]]:
    """The group's lanes, and per pattern its accepted-lane boards per
    exact ``(mismatches, rna, dna)`` profile.

    Each final reach plane is masked by its delta's lane board from
    :func:`_bulged_lanes` (PAM match and bounds). Empty boards are
    dropped.
    """
    rna, dna, mm = budget.rna_bulges, budget.dna_bulges, budget.mismatches
    lanes, pam = _bulged_lanes(codes, group, budget)
    if lanes.count == 0:
        return lanes, [{} for _ in group.indices]
    reach = _bulged_reach(lanes, group, budget)
    accepted: List[Dict[Tuple[int, int, int], np.ndarray]] = []
    for planes in reach:
        boards: Dict[Tuple[int, int, int], np.ndarray] = {}
        for r in range(rna + 1):
            for d in range(dna + 1):
                for j in range(mm + 1):
                    selected = planes[r, d, j] & pam[d - r]
                    if selected.any():
                        boards[(j, r, d)] = selected
        accepted.append(boards)
    return lanes, accepted


def _best_profiles(
    accepted: Dict[Tuple[int, int, int], np.ndarray], budget: SearchBudget
) -> Iterator[Tuple[np.ndarray, int, int, int]]:
    """Best-profile rows ``(lanes, mismatches, rna, dna)``.

    Per (lane, delta) only the canonically best profile is kept —
    fewest total edits, then fewest bulges, then fewest mismatches —
    exactly the matcher's and the oracle's selection rule.
    """
    for delta in range(-budget.rna_bulges, budget.dna_bulges + 1):
        profiles = sorted(
            (key for key in accepted if key[2] - key[1] == delta),
            key=lambda key: (key[0] + key[1] + key[2], key[1] + key[2], key[0]),
        )
        chosen: np.ndarray | None = None
        for j, r, d in profiles:
            selected = accepted[(j, r, d)]
            if chosen is not None:
                selected = selected & ~chosen
            lane_indices = _board_starts(selected)
            if lane_indices.size == 0:
                continue
            chosen = selected if chosen is None else chosen | selected
            yield lane_indices, j, r, d


# -- hit reporting -------------------------------------------------------------


def _sites(codes: np.ndarray, starts: np.ndarray, length: int) -> List[str]:
    """The + strand text of each window ``[start, start + length)``.

    Decodes only the windows, never the whole block.
    """
    text = alphabet.decode(codes[starts[:, None] + np.arange(length)].ravel())
    return [text[k : k + length] for k in range(0, len(text), length)]


class BitParallelPanel:
    """A guide panel compiled for the bit-parallel kernel.

    Compile once (pattern masks for every guide x strand, sorted into
    lane groups), then call :meth:`find_hits` per genome block: each
    group filters the block's starts by its PAM once and counts
    mismatches only on the lanes that pass, in a handful of dense
    vector passes stacked over the group's patterns. Bulged budgets
    run the banded engine natively.
    """

    def __init__(self, guides: Iterable[Guide], budget: SearchBudget) -> None:
        guide_list = list(guides)
        if not guide_list:
            raise EngineError("bit-parallel kernel needs at least one guide")
        self._budget = budget
        self._patterns: tuple[_StrandPattern, ...] = tuple(
            _compile_strand(guide, strand)
            for guide in guide_list
            for strand in ("+", "-")
        )
        self._groups = _lane_groups(self._patterns)

    @property
    def budget(self) -> SearchBudget:
        return self._budget

    @property
    def num_patterns(self) -> int:
        return len(self._patterns)

    def _accepted(
        self, codes: np.ndarray
    ) -> Iterator[Tuple[int, _Lanes, Dict[Tuple[int, int, int], np.ndarray]]]:
        """``(pattern index, lanes, accept boards)`` of every bulged pattern."""
        for group in self._groups:
            lanes, accepted = _bulged_accept_boards(codes, group, self._budget)
            for index, boards in zip(group.indices, accepted):
                yield index, lanes, boards

    def _rows(
        self, codes: np.ndarray
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, int, int]]:
        """Hit rows ``(pattern index, starts, mismatches, rna, dna)`` of one block."""
        if self._budget.has_bulges:
            for index, lanes, accepted in self._accepted(codes):
                for lane_indices, j, r, d in _best_profiles(accepted, self._budget):
                    starts = lanes.starts[lane_indices]
                    yield index, starts, np.full(starts.size, j), r, d
            return
        for group in self._groups:
            lanes, hit, ge = _thermometer(codes, group, self._budget.mismatches)
            per_pattern = lanes.nwords * 64
            positions = _board_starts(hit.ravel())
            counts = np.zeros(positions.size, dtype=np.int64)
            for plane in ge:
                counts += _bits_at(plane.ravel(), positions)
            # Positions ascend, so each pattern's hits are one run.
            edges = (positions // per_pattern).searchsorted(
                np.arange(len(group.indices) + 1)
            )
            for row, index in enumerate(group.indices):
                run = slice(edges[row], edges[row + 1])
                if run.start < run.stop:
                    lane_indices = positions[run] - row * per_pattern
                    yield index, lanes.starts[lane_indices], counts[run], 0, 0

    def find_hits(self, genome: Sequence) -> list[OffTargetHit]:
        """All hits of the panel in *genome*, canonically deduped + sorted."""
        if len(genome) == 0:
            return []
        codes = genome.codes
        hits: list[OffTargetHit] = []
        for index, starts, mismatches, rna, dna in self._rows(codes):
            pattern = self._patterns[index]
            length = pattern.total + dna - rna
            reverse = pattern.strand == "-"
            sites = _sites(codes, starts, length)
            for start, count, site in zip(starts.tolist(), mismatches.tolist(), sites):
                hits.append(
                    OffTargetHit(
                        guide_name=pattern.guide.name,
                        sequence_name=genome.name,
                        strand=pattern.strand,
                        start=start,
                        end=start + length,
                        mismatches=count,
                        rna_bulges=rna,
                        dna_bulges=dna,
                        site=alphabet.reverse_complement(site) if reverse else site,
                    )
                )
        return dedupe_hits(hits)

    def count_report_rows(self, genome: Sequence) -> int:
        """Pre-dedup report events for this panel over *genome*.

        For bulged budgets this counts every feasible edit profile per
        (start, delta) — the accept-row activations the spatial
        reporting models charge for — matching the matcher's
        ``all_profiles`` enumeration bit for bit.
        """
        if len(genome) == 0:
            return 0
        codes = genome.codes
        if self._budget.has_bulges:
            return sum(
                _popcount(board)
                for _, _, accepted in self._accepted(codes)
                for board in accepted.values()
            )
        return sum(
            _popcount(_thermometer(codes, group, self._budget.mismatches)[1])
            for group in self._groups
        )


def count_report_rows(
    genome: Sequence, guides: SequenceType[Guide], budget: SearchBudget
) -> int:
    """Pre-dedup report events (API parity with ``matcher.count_report_rows``)."""
    guide_list = list(guides)
    if not guide_list:
        return 0
    return BitParallelPanel(guide_list, budget).count_report_rows(genome)
