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
Every guide gives two strand patterns, each a protospacer run and PAM
positions placed in the + strand site window by
:func:`repro.core.compiler.site_offsets`. They fall into *lane
groups*: patterns of one length whose exact (PAM) positions sit at the
same offsets with the same masks. That is one group per PAM layout and
strand, whatever the protospacers, and a group's patterns share their
budgeted positions by construction. Compiling a panel is array work:
the guides of one (PAM, length) bucket are encoded as one ``(guides,
length)`` code array, the − strand's is ``3 - codes[:, ::-1]``, and
each strand's layout (PAM offsets and masks, ``b_off``) is worked out
once per bucket.

In each genome block of ``n`` symbols, a group tests its exact
positions once, straight from the codes (for a bulged budget, the
union over length deltas of the per-delta PAM-and-bounds checks
below). The starts that pass are the group's *lanes*: lane ``i`` is
start ``starts[i]``, and a *lane board* is a little-endian ``uint64``
bitboard whose word ``w`` holds lanes ``[64w, 64w + 64)``. NGG keeps
about one start in sixteen of a GC-0.41 genome; a PAM that admits
every start (a custom ``N``) keeps them all and runs the same way.

Pattern offset ``u``'s *lane code boards* — one per base code (A, C,
G, T), bit ``i`` set when ``codes[starts[i] + u]`` carries that code —
come from one gather, ``codes[starts + u]``. A read past the block end
sets no bit in any of them, so it matches nothing, and neither does a
genome ``N``: protospacers are concrete bases, so a budgeted position's
*match board* is the code board of its base, exactly as the oracle
counts it (exact positions may be IUPAC; the lane filter tests their
5-bit masks, :func:`repro.alphabet.iupac_code_mask`, straight from the
codes).

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

Lane index
----------
A block's lanes, its per-delta PAM boards and every offset's code
boards depend only on the block and the group's *lane layout* (length,
exact positions and masks, and the bulge budget's delta range), never
on the protospacers. The kernel reads them only through a
:class:`LaneIndex`. A one-shot scan builds a throwaway one; a serving
session keeps one for its fixed genome, so the first panel of a layout
builds them and every later panel of that layout reuses them. A kept
index holds at most :data:`LANE_INDEX_BYTES_PER_SYMBOL` bytes per
symbol of each block and of its genome, evicting the least recently
used layouts; a layout over the bound (an all-``N`` PAM keeps every
start) is built per scan and not kept. Pool workers forked while a kept
index lives inherit its sequences, and each keeps an index of its own
over them (:mod:`repro.core.parallel`).
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence as SequenceType,
    Tuple,
    Union,
)

import numpy as np

from .. import alphabet
from ..errors import EngineError
from ..genome.sequence import Sequence
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit, dedupe_hits
from ..grna.pam import Pam
from .compiler import STRANDS, SearchBudget, site_offsets

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: The mask of a pattern ``N``: every genome code satisfies it.
_ANY_CODE = (1 << alphabet.NUM_CODES) - 1

#: What a lane reads past the block end: a code no 5-bit mask selects.
_PAST_END = alphabet.NUM_CODES

#: A pattern's exact positions: ``(offset, mask, shifts with delta)``.
_Exact = Tuple[Tuple[int, int, bool], ...]

#: The 5-bit genome-code mask of every IUPAC pattern symbol.
_CODE_MASKS = {symbol: alphabet.iupac_code_mask(symbol) for symbol in alphabet.IUPAC}

#: The masks of the four base codes, in code order: the lane code boards.
_BASE_MASKS = np.array([1 << code for code in range(alphabet.CODE_N)], dtype=np.uint8)

#: Rows of an offset's code boards: one base code, several, or all.
_BaseIndex = Union[int, np.ndarray, slice]

#: Bytes a kept :class:`LaneIndex` may hold per symbol of a block.
LANE_INDEX_BYTES_PER_SYMBOL = 8

#: What a kept layout costs beyond its arrays (its objects and its key),
#: so a block too short to be worth keeping keeps nothing.
_LAYOUT_OVERHEAD_BYTES = 1024


def find_hits(
    genome: Sequence, guides: Iterable[Guide], budget: SearchBudget
) -> list[OffTargetHit]:
    """One-shot bit-parallel scan (API parity with ``matcher.find_hits``)."""
    return BitParallelPanel(guides, budget).find_hits(genome)


# -- pattern compilation -------------------------------------------------------


#: One strand pattern of a panel: its guide, strand and length.
_Pattern = Tuple[Guide, str, int]


def _strand_layout(pam: Pam, strand: str, guide_length: int) -> Tuple[int, _Exact]:
    """``(b_off, exact)`` of a *guide_length*-nt guide's *strand* pattern.

    The protospacer is the one budgeted run, at ``b_off``; the PAM's
    positions are exact, with the masks of the PAM as the + strand
    reads it, and shift with a bulged site's length delta when they
    trail the run.
    """
    pam_offset, b_off = site_offsets(pam.side, strand, guide_length, len(pam))
    pattern = pam.pattern if strand == "+" else pam.reverse_complement_pattern()
    exact = tuple(
        (pam_offset + i, _CODE_MASKS[symbol], pam_offset > b_off)
        for i, symbol in enumerate(pattern)
    )
    return b_off, exact


@dataclass(frozen=True)
class _LaneGroup:
    """Strand patterns that keep the same lanes in every block.

    Patterns of one length whose exact positions carry the same masks
    admit exactly the same starts, so one exact-position filter serves
    the whole group. They share the budgeted run ``[b_off, b_off +
    len(codes))`` too; ``codes[t, p]`` is the base code pattern ``p``
    needs at the run's ``t``-th position (protospacers are concrete).
    """

    total: int
    b_off: int
    exact: _Exact
    indices: tuple[int, ...]  # the members' indices in the panel's pattern list
    codes: np.ndarray
    _needs: Dict[Tuple[int, int], List[Tuple[_BaseIndex, np.ndarray]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def needs(self, rna: int, dna: int) -> List[Tuple[_BaseIndex, np.ndarray]]:
        """Per offset ``b_off + t``, the base codes the members read there.

        Under ``rna`` RNA and ``dna`` DNA bulges, steps ``t - dna`` to
        ``t + rna`` read that offset. Each entry is ``(index, masks)``:
        the codes (one as a plain int) and their masks.
        """
        needs = self._needs.get((rna, dna))
        if needs is None:
            columns: List[List[int]] = self.codes.tolist()
            needs = []
            for t in range(len(columns) + dna):
                window = columns[max(t - dna, 0) : t + rna + 1]
                bases = sorted({code for column in window for code in column})
                index: _BaseIndex = bases[0] if len(bases) == 1 else np.array(bases)
                needs.append((index, _BASE_MASKS[bases]))
            self._needs[(rna, dna)] = needs
        return needs


def _compile_panel(
    guides: SequenceType[Guide],
) -> Tuple[Tuple[_Pattern, ...], Tuple[_LaneGroup, ...]]:
    """The strand patterns of *guides* and their lane groups.

    Pattern ``2g + s`` is guide ``g`` on strand ``STRANDS[s]``. Guides
    of one (PAM, length) bucket are encoded together, one strand at a
    time, and the buckets whose layouts coincide (a 5' ``CCN`` PAM's +
    strand and an NGG's − strand) share a group. Groups come in order
    of their first pattern, members in pattern order.
    """
    buckets: Dict[Tuple[str, str, int], List[int]] = {}
    for position, guide in enumerate(guides):
        key = (guide.pam.pattern, guide.pam.side, len(guide.protospacer))
        buckets.setdefault(key, []).append(position)
    members: Dict[Tuple[int, _Exact], List[Tuple[int, np.ndarray, np.ndarray]]] = {}
    for (_, _, length), positions in buckets.items():
        pam = guides[positions[0]].pam
        text = "".join(guides[position].protospacer for position in positions)
        forward = alphabet.encode(text).reshape(len(positions), length)
        for s, strand in enumerate(STRANDS):
            b_off, exact = _strand_layout(pam, strand, length)
            codes = forward if strand == "+" else 3 - forward[:, ::-1]
            indices = 2 * np.array(positions) + s
            members.setdefault((length + len(pam), exact), []).append(
                (b_off, indices, codes)
            )
    groups: List[_LaneGroup] = []
    for (total, exact), parts in members.items():
        indices = np.concatenate([part[1] for part in parts])
        order = np.argsort(indices, kind="stable")
        codes = np.concatenate([part[2] for part in parts])[order]
        groups.append(
            _LaneGroup(
                total=total,
                b_off=parts[0][0],
                exact=exact,
                indices=tuple(indices[order].tolist()),
                codes=np.ascontiguousarray(codes.T, dtype=np.intp),
            )
        )
    groups.sort(key=lambda group: group.indices[0])
    patterns = tuple(
        (guide, strand, guide.site_length) for guide in guides for strand in STRANDS
    )
    return patterns, tuple(groups)


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
    """The starts of one block that a lane layout keeps, and their boards.

    Lane ``i`` is start ``starts[i]`` (ascending); a lane board holds
    lane ``i`` at bit ``i % 64`` of word ``i // 64``. A layout found by
    :func:`_find_lanes` also carries ``pam[delta]``, a bulged layout's
    per-delta PAM board, and ``rows[k, c]``, the code board of base
    code ``c`` at the ``k``-th offset its scan reads.
    """

    def __init__(self, codes: np.ndarray, starts: np.ndarray) -> None:
        self.codes = codes
        self.starts = starts
        self.count = int(starts.size)
        self.nwords = (self.count + 63) // 64
        self.pam: Dict[int, np.ndarray] = {}
        self.rows = np.zeros((0, _BASE_MASKS.size, self.nwords), dtype=np.uint64)

    @property
    def nbytes(self) -> int:
        """What keeping this layout in a :class:`LaneIndex` costs."""
        pam = sum(board.nbytes for board in self.pam.values())
        return _LAYOUT_OVERHEAD_BYTES + int(self.starts.nbytes + self.rows.nbytes + pam)

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

    def index_codes(self, group: _LaneGroup, budget: SearchBudget, every_base: bool) -> None:
        """Fill ``rows`` with the code boards the scan of *group* reads.

        Row ``rna + t`` holds offset ``b_off + t``'s boards, one gather
        each (the ``rna`` lead rows serve bands whose offset falls
        before the protospacer, which read nothing). Every base's board
        is built when *every_base* is set, for later panels of the
        layout; otherwise only those of the bases the group's patterns
        need there, at steps ``t - dna`` to ``t + rna``.
        """
        rna, dna = budget.rna_bulges, budget.dna_bulges
        if not self.count:
            return
        for t, (bases, masks) in enumerate(group.needs(rna, dna)):
            if every_base:
                bases, masks = slice(None), _BASE_MASKS
            self.rows[rna + t, bases] = self.boards(self.gather(group.b_off + t), masks)


def _find_lanes(codes: np.ndarray, group: _LaneGroup, budget: SearchBudget) -> _Lanes:
    """The lanes of *group*'s layout in the block, and room for their boards.

    ``rows`` is sized for every offset the scan reads, all zero: a
    bulged budget's bands read offsets ``b_off - rna`` to ``b_off + m -
    1 + dna`` of an ``m``-position protospacer, a mismatch-only budget
    ``[b_off, b_off + m)``.
    """
    if budget.has_bulges:
        lanes, pam = _bulged_lanes(codes, group, budget)
        lanes.pam = pam
    else:
        valid = max(codes.size - group.total + 1, 0)
        lanes = _Lanes(codes, np.flatnonzero(_exact_filter(codes, group.exact, valid, 0)))
    offsets = budget.rna_bulges + group.codes.shape[0] + budget.dna_bulges
    lanes.rows = np.zeros((offsets, _BASE_MASKS.size, lanes.nwords), dtype=np.uint64)
    return lanes


#: A layout's key: its block ``(sequence, offset, length)`` (``None``
#: outside the index's genome), the group's length and exact positions,
#: and the budget's bulges.
_LayoutKey = Tuple[Optional[Tuple[int, int, int]], int, _Exact, int, int]


#: Kept-index tokens come from a counter, so no token is ever reused: a
#: pool worker can never mistake a new index for one it inherited.
_index_tokens = itertools.count(1)

#: Every live kept index by token. A pool worker forked now inherits
#: each of them, sequences included.
_kept_indexes: Dict[int, "weakref.ref[LaneIndex]"] = {}


def kept_index_tokens() -> FrozenSet[int]:
    """The tokens of every kept :class:`LaneIndex` alive now."""
    return frozenset(_kept_indexes)


def kept_index(token: int) -> "LaneIndex | None":
    """The live kept index *token* names, or ``None``."""
    ref = _kept_indexes.get(token)
    return None if ref is None else ref()


class LaneIndex:
    """Lanes and lane code boards, built once per (genome block, lane layout).

    The kernel reads every lane and match board through an index. One
    made with no *sequences* keeps nothing: each scan builds what it
    reads, which is what a one-shot scan does. One made over a fixed
    genome keeps the layouts of every block that lies inside one of its
    *sequences* (a block is a chunk's code array, a view into the
    sequence's codes, and is keyed by where it lies), so the first
    panel of a layout builds its lanes and boards and every later panel
    reuses them. Reuse is exact because a :class:`Sequence`'s codes
    never change and the index holds the sequences, so no other block
    can take their place.

    Retained bytes are bounded by construction: a layout is kept only
    when it costs at most :data:`LANE_INDEX_BYTES_PER_SYMBOL` bytes per
    symbol of its block, and the least recently used layouts are
    evicted to keep the total within that many bytes per symbol of the
    genome. A layout over the bound (an all-``N`` PAM keeps every
    start) is built per scan.

    A kept index has a ``token`` that names it to the pool workers
    forked while it lives (:func:`kept_index`): they inherit its
    sequences and scan them through indexes of their own.
    """

    def __init__(self, sequences: Iterable[Sequence] = ()) -> None:
        # Holding the sequences pins the buffers the spans address.
        self._sequences = tuple(sequences)
        self._spans: List[Tuple[int, int]] = []
        for sequence in self._sequences:
            low = sequence.codes.__array_interface__["data"][0]
            self._spans.append((low, low + len(sequence)))
        self._capacity = LANE_INDEX_BYTES_PER_SYMBOL * sum(map(len, self._sequences))
        self._kept: "OrderedDict[_LayoutKey, _Lanes]" = OrderedDict()
        self._bytes = 0
        self._builds = 0
        self._reuses = 0
        self._lock = threading.Lock()
        self.token: int | None = None
        if self._sequences:
            self.token = next(_index_tokens)
            _kept_indexes[self.token] = weakref.ref(self)
            weakref.finalize(self, _kept_indexes.pop, self.token, None)

    @property
    def sequences(self) -> Tuple[Sequence, ...]:
        return self._sequences

    def stats(self) -> Dict[str, int]:
        """Kept layouts and bytes, the bound, and builds and reuses so far."""
        with self._lock:
            return {
                "layouts": len(self._kept),
                "bytes": self._bytes,
                "capacity_bytes": self._capacity,
                "builds": self._builds,
                "reuses": self._reuses,
            }

    def locate(self, codes: np.ndarray) -> Tuple[int, int, int] | None:
        """Where *codes* lies in the index's sequences, ``(sequence,
        offset, length)``, or ``None``."""
        if not self._spans or codes.dtype != np.uint8 or not codes.flags.c_contiguous:
            return None
        address = codes.__array_interface__["data"][0]
        for position, (low, high) in enumerate(self._spans):
            if low <= address and address + codes.size <= high:
                return position, address - low, int(codes.size)
        return None

    def lanes(self, codes: np.ndarray, group: _LaneGroup, budget: SearchBudget) -> _Lanes:
        """The lanes and boards of *group*'s layout in the block *codes*."""
        block = self.locate(codes)
        key = (block, group.total, group.exact, budget.rna_bulges, budget.dna_bulges)
        if block is not None:
            with self._lock:
                kept = self._kept.get(key)
                if kept is not None:
                    self._kept.move_to_end(key)
                    self._reuses += 1
                    return kept
                self._builds += 1
        lanes = _find_lanes(codes, group, budget)
        keep = block is not None and lanes.nbytes <= LANE_INDEX_BYTES_PER_SYMBOL * codes.size
        lanes.index_codes(group, budget, every_base=keep)
        if keep:
            with self._lock:
                # A concurrent scan may have kept the same layout first.
                previous = self._kept.pop(key, None)
                self._bytes += lanes.nbytes - (previous.nbytes if previous else 0)
                self._kept[key] = lanes
                while self._bytes > self._capacity:
                    _, evicted = self._kept.popitem(last=False)
                    self._bytes -= evicted.nbytes
        return lanes


# -- the mismatch-only scan ----------------------------------------------------


def _thermometer(
    codes: np.ndarray,
    group: _LaneGroup,
    budget: SearchBudget,
    index: LaneIndex | None = None,
) -> tuple[_Lanes, np.ndarray, np.ndarray]:
    """``(lanes, hit, ge)`` of every pattern of *group* in the block.

    ``hit[p]`` is pattern ``p``'s lane board of hits; ``ge[j, p]`` its
    thermometer plane of at least ``j + 1`` mismatches. The lanes come
    from *index*, or a throwaway one.
    """
    k = budget.mismatches
    lanes = (LaneIndex() if index is None else index).lanes(codes, group, budget)
    shape = (len(group.indices), lanes.nwords)
    exceed = np.zeros(shape, dtype=np.uint64)
    ge = np.zeros((k,) + shape, dtype=np.uint64)
    if lanes.count:
        # Row t holds offset b_off + t's code boards; each pattern's
        # match board there is the board of the base it needs.
        for rows, needed in zip(lanes.rows, group.codes):
            miss = ~rows[needed]
            if k == 0:
                exceed |= miss
                continue
            exceed |= ge[k - 1] & miss
            for j in range(k - 1, 0, -1):
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
    m = group.codes.shape[0]
    reach = np.zeros(
        (len(group.indices), rna + 1, dna + 1, mm + 1, lanes.nwords), dtype=np.uint64
    )
    reach[:, 0, 0, 0] = _ALL_ONES
    # Cell (r, d) reads the board of its band d - r, window row d - r + rna.
    band_index = (np.arange(dna + 1)[None, :] - np.arange(rna + 1)[:, None]) + rna
    for i, needed in enumerate(group.codes):
        if dna and 1 <= i <= m - 1:
            _band_transfer(reach)
        # Window row rna + band holds the code boards of offset b_off +
        # i + band (all zero where i + band < 0, before the
        # protospacer); pattern p's match board in a cell is the board
        # of the base it needs there.
        window = lanes.rows[i : i + rna + dna + 1]
        aligned = window[band_index[None], needed[:, None, None]][:, :, :, None, :]
        nxt = reach & aligned
        if mm:
            nxt[:, :, :, 1:] |= reach[:, :, :, :mm] & ~aligned
        if rna and 0 < i < m - 1:
            nxt[:, 1:] |= reach[:, :rna]
        reach = nxt
    return reach


def _bulged_accept_boards(
    codes: np.ndarray,
    group: _LaneGroup,
    budget: SearchBudget,
    index: LaneIndex | None = None,
) -> tuple[_Lanes, List[Dict[Tuple[int, int, int], np.ndarray]]]:
    """The group's lanes, and per pattern its accepted-lane boards per
    exact ``(mismatches, rna, dna)`` profile.

    Each final reach plane is masked by its delta's lane board from
    :func:`_bulged_lanes` (PAM match and bounds). Empty boards are
    dropped. The lanes come from *index*, or a throwaway one.
    """
    rna, dna, mm = budget.rna_bulges, budget.dna_bulges, budget.mismatches
    lanes = (LaneIndex() if index is None else index).lanes(codes, group, budget)
    pam = lanes.pam
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
    group takes the block's lanes (the starts its PAM admits) and their
    code boards from a :class:`LaneIndex` and counts mismatches only on
    those lanes, in a handful of dense vector passes stacked over the
    group's patterns. Bulged budgets run the banded engine natively.
    """

    def __init__(self, guides: Iterable[Guide], budget: SearchBudget) -> None:
        guide_list = list(guides)
        if not guide_list:
            raise EngineError("bit-parallel kernel needs at least one guide")
        self._budget = budget
        self._patterns, self._groups = _compile_panel(guide_list)

    @property
    def budget(self) -> SearchBudget:
        return self._budget

    @property
    def num_patterns(self) -> int:
        return len(self._patterns)

    def _accepted(
        self, codes: np.ndarray, lane_index: LaneIndex
    ) -> Iterator[Tuple[int, _Lanes, Dict[Tuple[int, int, int], np.ndarray]]]:
        """``(pattern index, lanes, accept boards)`` of every bulged pattern."""
        for group in self._groups:
            lanes, accepted = _bulged_accept_boards(codes, group, self._budget, lane_index)
            for index, boards in zip(group.indices, accepted):
                yield index, lanes, boards

    def _rows(
        self, codes: np.ndarray, lane_index: LaneIndex
    ) -> Iterator[Tuple[int, np.ndarray, np.ndarray, int, int]]:
        """Hit rows ``(pattern index, starts, mismatches, rna, dna)`` of one block."""
        if self._budget.has_bulges:
            for index, lanes, accepted in self._accepted(codes, lane_index):
                for lane_indices, j, r, d in _best_profiles(accepted, self._budget):
                    starts = lanes.starts[lane_indices]
                    yield index, starts, np.full(starts.size, j), r, d
            return
        for group in self._groups:
            lanes, hit, ge = _thermometer(codes, group, self._budget, lane_index)
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

    def find_hits(
        self, genome: Sequence, lane_index: LaneIndex | None = None
    ) -> list[OffTargetHit]:
        """All hits of the panel in *genome*, canonically deduped + sorted.

        Lanes and code boards come from *lane_index* (a session's,
        which keeps them across panels) or from a throwaway index.
        """
        if len(genome) == 0:
            return []
        if lane_index is None:
            lane_index = LaneIndex()
        codes = genome.codes
        hits: list[OffTargetHit] = []
        for index, starts, mismatches, rna, dna in self._rows(codes, lane_index):
            guide, strand, total = self._patterns[index]
            length = total + dna - rna
            reverse = strand == "-"
            sites = _sites(codes, starts, length)
            for start, count, site in zip(starts.tolist(), mismatches.tolist(), sites):
                hits.append(
                    OffTargetHit(
                        guide_name=guide.name,
                        sequence_name=genome.name,
                        strand=strand,
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
        lane_index = LaneIndex()
        if self._budget.has_bulges:
            return sum(
                _popcount(board)
                for _, _, accepted in self._accepted(codes, lane_index)
                for board in accepted.values()
            )
        return sum(
            _popcount(_thermometer(codes, group, self._budget, lane_index)[1])
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
