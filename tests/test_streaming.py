"""Unit tests for the overlapping chunk iterator and the chunk stream."""

import pytest

from repro import ParallelSearch, SearchBudget, random_genome, sample_guides_from_genome
from repro.core import matcher
from repro.core.streaming import iter_chunks
from repro.errors import EngineError
from repro.genome.sequence import Sequence

from helpers import hit_spans


class TestIterChunks:
    def test_covers_everything(self):
        genome = random_genome(1000, seed=81)
        chunks = list(iter_chunks(genome, chunk_length=300, overlap=22))
        rebuilt = chunks[0].sequence.text
        for chunk in chunks[1:]:
            rebuilt += chunk.sequence.text[chunk.overlap :]
        assert rebuilt == genome.text

    def test_overlap_repeats_previous_tail(self):
        genome = random_genome(500, seed=82)
        chunks = list(iter_chunks(genome, chunk_length=200, overlap=30))
        for previous, current in zip(chunks, chunks[1:]):
            assert current.sequence.text[:30] == previous.sequence.text[-30:]

    def test_first_chunk_has_no_overlap(self):
        genome = random_genome(100, seed=83)
        first = next(iter_chunks(genome, chunk_length=60, overlap=10))
        assert first.overlap == 0
        assert first.start == 0

    def test_short_genome_single_chunk(self):
        genome = random_genome(50, seed=84)
        chunks = list(iter_chunks(genome, chunk_length=200, overlap=22))
        assert len(chunks) == 1
        assert len(chunks[0]) == 50

    def test_empty_genome(self):
        genome = Sequence.from_text("e", "")
        assert list(iter_chunks(genome, chunk_length=10, overlap=2)) == []

    def test_validation(self):
        genome = random_genome(100, seed=85)
        with pytest.raises(EngineError):
            list(iter_chunks(genome, chunk_length=0, overlap=0))
        with pytest.raises(EngineError):
            list(iter_chunks(genome, chunk_length=10, overlap=10))

    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    def test_chunk_length_near_total(self, delta):
        # The regression this pins: with chunk_length within a couple of
        # symbols of the genome length, the final chunk must never be a
        # fully-duplicated tail — it is always at least overlap+1 long
        # (or the genome fits in a single chunk), and coverage stays
        # exact with no position streamed as new content twice.
        total = 100
        overlap = 22
        genome = random_genome(total, seed=95)
        chunks = list(iter_chunks(genome, chunk_length=total + delta, overlap=overlap))
        rebuilt = chunks[0].sequence.text
        for chunk in chunks[1:]:
            assert len(chunk) > chunk.overlap  # tail carries new content
            rebuilt += chunk.sequence.text[chunk.overlap :]
        assert rebuilt == genome.text
        if delta >= 0:
            assert len(chunks) == 1

    @pytest.mark.parametrize("total", [23, 24, 40, 99, 100, 101])
    def test_no_tail_chunk_shorter_than_overlap(self, total):
        overlap = 22
        genome = random_genome(total, seed=96)
        for chunk_length in range(overlap + 1, total + 2):
            chunks = list(
                iter_chunks(genome, chunk_length=chunk_length, overlap=overlap)
            )
            for chunk in chunks[1:]:
                assert len(chunk) >= overlap + 1
            # Chunks cover the genome exactly, in order.
            assert chunks[0].start == 0
            assert chunks[-1].start + len(chunks[-1]) == total


class TestStreamingSearch:
    """The in-process chunk stream: ``ParallelSearch(workers=1)``."""

    @pytest.fixture(scope="class")
    def genome(self):
        return random_genome(120_000, seed=86, name="chrStream")

    @pytest.fixture(scope="class")
    def guides(self, genome):
        return sample_guides_from_genome(genome, 3, seed=87)

    @staticmethod
    def stream(guides, budget, **kwargs):
        return ParallelSearch(guides, budget, workers=1, **kwargs)

    @pytest.mark.parametrize("chunk_length", [4096, 10_000, 65_536])
    def test_identical_to_whole_genome(self, genome, guides, chunk_length):
        budget = SearchBudget(mismatches=3)
        whole = matcher.find_hits(genome, guides, budget)
        chunked = self.stream(guides, budget, chunk_length=chunk_length).search(genome)
        assert hit_spans(chunked) == hit_spans(whole)

    def test_identical_with_bulges(self, genome, guides):
        budget = SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1)
        whole = matcher.find_hits(genome, guides, budget)
        chunked = self.stream(guides, budget, chunk_length=8192).search(genome)
        assert hit_spans(chunked) == hit_spans(whole)

    def test_boundary_straddling_site_found(self, guides):
        # Place a site exactly across a chunk boundary.
        guide = guides[0]
        target = guide.concrete_target()
        chunk_length = 1000
        boundary = chunk_length  # site straddles the first boundary
        prefix_len = boundary - len(target) // 2
        text = (
            random_genome(prefix_len, seed=88).text
            + target
            + random_genome(2000, seed=89).text
        )
        genome = Sequence.from_text("chrB", text)
        budget = SearchBudget(mismatches=0)
        hits = self.stream([guide], budget, chunk_length=chunk_length).search(genome)
        assert any(h.start == prefix_len for h in hits)

    def test_overlap_derived_from_budget(self, guides):
        no_bulges = self.stream(guides, SearchBudget(mismatches=2))
        bulged = self.stream(guides, SearchBudget(mismatches=2, dna_bulges=2))
        assert bulged.overlap == no_bulges.overlap + 2

    def test_search_many(self, guides):
        chr1 = random_genome(30_000, seed=90, name="chr1")
        chr2 = random_genome(30_000, seed=91, name="chr2")
        budget = SearchBudget(mismatches=3)
        streamed = self.stream(guides, budget, chunk_length=7000).search_many(
            [chr1, chr2]
        )
        whole = matcher.find_hits(chr1, guides, budget) + matcher.find_hits(
            chr2, guides, budget
        )
        assert hit_spans(streamed) == hit_spans(whole)

    def test_chunk_length_near_genome_length(self, genome, guides):
        budget = SearchBudget(mismatches=2)
        whole = matcher.find_hits(genome, guides, budget)
        for delta in (-1, 0, 1):
            chunked = self.stream(
                guides, budget, chunk_length=len(genome) + delta
            ).search(genome)
            assert hit_spans(chunked) == hit_spans(whole)

    def test_no_duplicate_hits(self, genome, guides):
        budget = SearchBudget(mismatches=3)
        hits = self.stream(guides, budget, chunk_length=5000).search(genome)
        keys = [h.key for h in hits]
        assert len(keys) == len(set(keys))

    def test_validation(self, guides):
        with pytest.raises(EngineError):
            self.stream([], SearchBudget())
        with pytest.raises(EngineError):
            self.stream(guides, SearchBudget(), chunk_length=10)
