"""Overlapping genome chunks: the windows every chunked scan streams.

Whole mammalian references do not fit comfortably in memory as one
scan's working set, and the original tools stream them in chunks
(Cas-OFFinder's chunked OpenCL buffers; the AP's symbol stream is
inherently chunked by DMA transfers). :func:`iter_chunks` cuts a
sequence into windows that overlap by ``max_site_length - 1`` symbols,
so every site straddling a chunk boundary lies wholly inside one chunk;
a scanner drops the hits wholly inside a chunk's overlapped prefix,
which the previous chunk already reported.
:class:`~repro.core.parallel.ParallelSearch` is that scanner, serial
(``workers=1``) or pooled, and the test suite pins its result to the
whole-sequence search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import EngineError
from ..genome.sequence import Sequence


@dataclass(frozen=True)
class Chunk:
    """One window of a streamed sequence.

    ``start`` is the chunk's offset in the parent sequence; the first
    ``overlap`` symbols repeat the tail of the previous chunk.
    """

    sequence: Sequence
    start: int
    overlap: int

    def __len__(self) -> int:
        return len(self.sequence)


def iter_chunks(
    genome: Sequence, *, chunk_length: int, overlap: int
) -> Iterator[Chunk]:
    """Cut *genome* into overlapping chunks.

    Every symbol position appears in at least one chunk; every window
    of length ``overlap + 1`` or less lies entirely inside some chunk.
    Each chunk's codes are a view into *genome*'s code array, not a
    copy.
    """
    if chunk_length <= 0:
        raise EngineError("chunk_length must be positive")
    if overlap < 0 or overlap >= chunk_length:
        raise EngineError("overlap must satisfy 0 <= overlap < chunk_length")
    total = len(genome)
    if total == 0:
        return
    step = chunk_length - overlap
    start = 0
    while True:
        end = min(start + chunk_length, total)
        yield Chunk(
            sequence=Sequence(genome.name, genome.codes[start:end]),
            start=start,
            overlap=overlap if start else 0,
        )
        if end >= total:
            # The genome is fully covered; any further chunk would lie
            # wholly inside this one's span and re-report its hits.
            break
        start += step
        if total - start <= overlap:
            # A tail of at most `overlap` symbols repeats bases the
            # previous chunk already streamed, and every site inside it
            # would be span-filtered as a duplicate. With
            # 0 <= overlap < chunk_length this cannot trigger (the
            # final chunk is always at least overlap + 1 long because
            # the loop only continues while end < total), but the guard
            # keeps the no-duplicated-tail invariant explicit and makes
            # any future change to the stepping arithmetic fail safe.
            break
