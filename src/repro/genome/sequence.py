"""Sequence value types.

:class:`Sequence` is the working representation: a named, immutable DNA
string backed by a ``numpy.uint8`` code array (see :mod:`repro.alphabet`)
so engines can consume it without re-parsing.

:class:`TwoBitSequence` is the storage representation used by the
Cas-OFFinder baseline and by the memory-footprint models: four bases per
byte, with a separate bitmap marking ``N`` positions, matching how the
original tools pack the reference genome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import alphabet
from ..errors import AlphabetError


@dataclass(frozen=True)
class Sequence:
    """An immutable named DNA sequence over ``ACGTN``.

    Parameters
    ----------
    name:
        Identifier (FASTA header word, chromosome name, ...).
    codes:
        ``uint8`` array of symbol codes; build from text with
        :meth:`from_text`.
    """

    name: str
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        # A view shares its owner's memory: when that owner is writable,
        # keep a copy so no later write to it can change the sequence.
        # An array that owns its memory is frozen in place, and a view
        # of a read-only owner (a chunk of another sequence) is kept.
        owner = codes
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        if codes.base is not None and owner.flags.writeable:
            codes = codes.copy()
        if codes.ndim != 1:
            raise AlphabetError("sequence codes must be one-dimensional")
        if codes.size and int(codes.max()) >= alphabet.NUM_CODES:
            raise AlphabetError("sequence codes contain out-of-range values")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)

    @classmethod
    def from_text(cls, name: str, text: str) -> "Sequence":
        """Build a sequence from a text string (case-insensitive)."""
        return cls(name, alphabet.encode(text))

    @property
    def text(self) -> str:
        """The sequence as an upper-case string."""
        return alphabet.decode(self.codes)

    def __len__(self) -> int:
        return int(self.codes.size)

    def __getitem__(self, index) -> str:
        if isinstance(index, slice):
            return alphabet.decode(self.codes[index])
        return alphabet.base_of(int(self.codes[index]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.name, self.codes.tobytes()))

    def window(self, start: int, length: int) -> str:
        """Return the text of the window ``[start, start + length)``.

        Raises :class:`IndexError` when the window leaves the sequence.
        """
        if start < 0 or start + length > len(self):
            raise IndexError(
                f"window [{start}, {start + length}) outside sequence of length {len(self)}"
            )
        return alphabet.decode(self.codes[start : start + length])

    def reverse_complement(self) -> "Sequence":
        """Return the reverse-complement sequence (name suffixed ``_rc``)."""
        comp = np.empty_like(self.codes)
        # A<->T (0<->3), C<->G (1<->2), N stays N (4).
        table = np.array([3, 2, 1, 0, 4], dtype=np.uint8)
        comp[:] = table[self.codes[::-1]]
        return Sequence(f"{self.name}_rc", comp)

    def gc_fraction(self) -> float:
        """Fraction of called bases (non-``N``) that are G or C."""
        called = self.codes[self.codes != alphabet.CODE_N]
        if called.size == 0:
            return 0.0
        gc = np.count_nonzero((called == alphabet.CODE_C) | (called == alphabet.CODE_G))
        return gc / called.size

    def count_n(self) -> int:
        """Number of ``N`` positions."""
        return int(np.count_nonzero(self.codes == alphabet.CODE_N))


class TwoBitSequence:
    """Four-bases-per-byte packed DNA with an ``N`` bitmap.

    This mirrors the packed-reference format the original off-target
    tools stream from disk: two bits per base (A=0, C=1, G=2, T=3) plus
    a one-bit-per-base mask of positions whose true symbol is ``N``
    (their two-bit payload is arbitrary and must be ignored).
    """

    def __init__(self, packed: np.ndarray, n_mask: np.ndarray, length: int) -> None:
        self._packed = np.ascontiguousarray(packed, dtype=np.uint8)
        self._n_mask = np.ascontiguousarray(n_mask, dtype=np.uint8)
        if length < 0:
            raise AlphabetError("length must be non-negative")
        if self._packed.size < (length + 3) // 4:
            raise AlphabetError("packed buffer shorter than declared length")
        if self._n_mask.size < (length + 7) // 8:
            raise AlphabetError("N bitmap shorter than declared length")
        self._length = length

    @classmethod
    def pack(cls, sequence: Sequence) -> "TwoBitSequence":
        """Pack a :class:`Sequence` into two-bit form."""
        codes = sequence.codes
        length = codes.size
        is_n = codes == alphabet.CODE_N
        two_bit = np.where(is_n, 0, codes).astype(np.uint8)
        padded_len = ((length + 3) // 4) * 4
        padded = np.zeros(padded_len, dtype=np.uint8)
        padded[:length] = two_bit
        quads = padded.reshape(-1, 4)
        packed = (
            quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
        ).astype(np.uint8)
        n_mask = np.packbits(is_n, bitorder="little")
        return cls(packed, n_mask, length)

    def __len__(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        """Storage footprint in bytes (packed payload + N bitmap)."""
        return int(self._packed.nbytes + self._n_mask.nbytes)

    def unpack(self, name: str = "unpacked") -> Sequence:
        """Expand back into a :class:`Sequence`."""
        quads = np.empty((self._packed.size, 4), dtype=np.uint8)
        quads[:, 0] = self._packed & 0b11
        quads[:, 1] = (self._packed >> 2) & 0b11
        quads[:, 2] = (self._packed >> 4) & 0b11
        quads[:, 3] = (self._packed >> 6) & 0b11
        codes = quads.reshape(-1)[: self._length].copy()
        is_n = np.unpackbits(self._n_mask, bitorder="little")[: self._length]
        codes[is_n.astype(bool)] = alphabet.CODE_N
        return Sequence(name, codes)

    def base_at(self, position: int) -> str:
        """Return the symbol at *position* without unpacking everything."""
        if not 0 <= position < self._length:
            raise IndexError(f"position {position} outside packed sequence")
        if (self._n_mask[position // 8] >> (position % 8)) & 1:
            return "N"
        byte = self._packed[position // 4]
        code = (byte >> (2 * (position % 4))) & 0b11
        return alphabet.base_of(int(code))
