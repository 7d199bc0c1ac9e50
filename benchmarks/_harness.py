"""Helpers for the benchmark/experiment harness."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.core import matcher
from repro.core.streaming import iter_chunks
from repro.grna.hit import dedupe_hits

RESULTS_DIR = Path(__file__).parent / "results"


def save_experiment(name: str, text: str) -> None:
    """Print an experiment table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")


class MatcherStream:
    """The reference LUT matcher run chunk by chunk.

    Same chunks, overlap and boundary rule as ``ParallelSearch(workers=1)``,
    so a timing against it isolates the kernel from the chunked front end.
    """

    def __init__(self, guides, budget, *, chunk_length):
        self.guides = list(guides)
        self.budget = budget
        self.chunk_length = chunk_length
        self.overlap = max(g.site_length for g in self.guides) + budget.dna_bulges - 1

    def search(self, genome):
        hits = []
        for chunk in iter_chunks(
            genome, chunk_length=self.chunk_length, overlap=self.overlap
        ):
            for hit in matcher.find_hits(chunk.sequence, self.guides, self.budget):
                # A hit wholly inside the overlapped prefix was already
                # reported by the previous chunk.
                if chunk.overlap and hit.end <= chunk.overlap:
                    continue
                hits.append(
                    replace(hit, start=hit.start + chunk.start, end=hit.end + chunk.start)
                )
        return dedupe_hits(hits)
