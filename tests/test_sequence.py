"""Unit tests for repro.genome.sequence."""

import numpy as np
import pytest

from repro.errors import AlphabetError
from repro.genome.sequence import Sequence, TwoBitSequence


class TestSequence:
    def test_from_text(self):
        seq = Sequence.from_text("s", "ACGTN")
        assert seq.text == "ACGTN"
        assert len(seq) == 5

    def test_codes_immutable(self):
        seq = Sequence.from_text("s", "ACGT")
        with pytest.raises(ValueError):
            seq.codes[0] = 2

    def test_view_of_a_writable_array_is_immutable(self):
        # A write to the owning array must not reach the sequence (the
        # lane index's reuse is exact only because codes never change).
        base = np.zeros(10, dtype=np.uint8)
        seq = Sequence("x", base[2:8])
        base[3] = 2
        assert seq.text == "AAAAAA"
        assert not np.shares_memory(seq.codes, base)

    def test_owned_and_immutable_codes_stay_zero_copy(self):
        codes = np.array([0, 1, 2, 3], dtype=np.uint8)
        whole = Sequence("s", codes)
        assert whole.codes is codes and not codes.flags.writeable
        chunk = Sequence("s", whole.codes[1:3])
        assert np.shares_memory(chunk.codes, whole.codes)
        assert chunk.text == "CG"

    def test_rejects_bad_codes(self):
        with pytest.raises(AlphabetError):
            Sequence("s", np.array([0, 9], dtype=np.uint8))

    def test_rejects_2d(self):
        with pytest.raises(AlphabetError):
            Sequence("s", np.zeros((2, 2), dtype=np.uint8))

    def test_getitem_scalar_and_slice(self):
        seq = Sequence.from_text("s", "ACGTN")
        assert seq[1] == "C"
        assert seq[1:4] == "CGT"

    def test_equality_and_hash(self):
        a = Sequence.from_text("s", "ACGT")
        b = Sequence.from_text("s", "ACGT")
        c = Sequence.from_text("t", "ACGT")
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_window(self):
        seq = Sequence.from_text("s", "ACGTACGT")
        assert seq.window(2, 3) == "GTA"

    def test_window_out_of_bounds(self):
        seq = Sequence.from_text("s", "ACGT")
        with pytest.raises(IndexError):
            seq.window(2, 3)
        with pytest.raises(IndexError):
            seq.window(-1, 2)

    def test_reverse_complement(self):
        seq = Sequence.from_text("s", "AACGTN")
        assert seq.reverse_complement().text == "NACGTT"

    def test_reverse_complement_involution(self):
        seq = Sequence.from_text("s", "ACGGTTANC")
        assert seq.reverse_complement().reverse_complement().text == seq.text

    def test_gc_fraction(self):
        assert Sequence.from_text("s", "GGCC").gc_fraction() == 1.0
        assert Sequence.from_text("s", "AATT").gc_fraction() == 0.0
        assert Sequence.from_text("s", "ACGT").gc_fraction() == 0.5

    def test_gc_fraction_ignores_n(self):
        assert Sequence.from_text("s", "GCNN").gc_fraction() == 1.0

    def test_gc_fraction_empty(self):
        assert Sequence.from_text("s", "").gc_fraction() == 0.0
        assert Sequence.from_text("s", "NNN").gc_fraction() == 0.0

    def test_count_n(self):
        assert Sequence.from_text("s", "ANNGT").count_n() == 2


class TestTwoBitSequence:
    def test_pack_unpack_roundtrip(self):
        text = "ACGTNACGTNGGCCAATT"
        seq = Sequence.from_text("s", text)
        packed = TwoBitSequence.pack(seq)
        assert packed.unpack().text == text

    def test_roundtrip_various_lengths(self):
        for length in (0, 1, 3, 4, 5, 8, 9, 17):
            text = ("ACGTN" * 5)[:length]
            seq = Sequence.from_text("s", text)
            assert TwoBitSequence.pack(seq).unpack().text == text

    def test_length(self):
        seq = Sequence.from_text("s", "ACGTACG")
        assert len(TwoBitSequence.pack(seq)) == 7

    def test_base_at(self):
        text = "ACGTNACGT"
        packed = TwoBitSequence.pack(Sequence.from_text("s", text))
        for index, base in enumerate(text):
            assert packed.base_at(index) == base

    def test_base_at_out_of_range(self):
        packed = TwoBitSequence.pack(Sequence.from_text("s", "ACGT"))
        with pytest.raises(IndexError):
            packed.base_at(4)

    def test_nbytes_compression(self):
        seq = Sequence.from_text("s", "ACGT" * 100)
        packed = TwoBitSequence.pack(seq)
        # 2 bits/base + 1 bit/base bitmap < 1 byte/base.
        assert packed.nbytes < len(seq)
        assert packed.nbytes == 100 + 50

    def test_rejects_short_buffers(self):
        with pytest.raises(AlphabetError):
            TwoBitSequence(np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.uint8), 100)

    def test_rejects_negative_length(self):
        with pytest.raises(AlphabetError):
            TwoBitSequence(np.zeros(1, dtype=np.uint8), np.zeros(1, dtype=np.uint8), -1)
