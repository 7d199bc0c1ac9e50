"""F12 — Bit-parallel kernel throughput versus the byte-wise LUT scan.

The bit-parallel Shift-And kernel (`repro.core.bitparallel`) checks each
PAM layout's exact positions once per block and counts mismatches only
at the starts that pass, 64 per machine word, with every guide of a PAM
layout stacked into one array; the LUT matcher gathers one byte per
(pattern position, genome symbol). This table streams both over
the same chunks — ``ParallelSearch(workers=1)`` for the bit-parallel
kernel, the reference matcher driven per chunk by ``MatcherStream`` with
identical overlap and dedupe — so the ratio isolates the kernel, in
symbols/s, across panel sizes and mismatch budgets. The matcher is a
reference implementation only; no production path runs it.

Acceptance (ISSUE 6): >= 10x symbols/s over the matcher-backed stream
on a 20-guide panel at mismatch budget 3. Both kernels' hit lists are
asserted bit-identical before any timing is trusted.
"""

import time

from repro import ParallelSearch, SearchBudget, random_genome, sample_guides_from_genome
from repro.analysis.tables import render_table

from _harness import MatcherStream, save_experiment

GENOME_LENGTH = 200_000
PANEL_SIZES = (1, 5, 20)
BUDGETS = (1, 3)
CHUNK = 1 << 16

#: The ISSUE acceptance cell: 20-guide panel, budget 3, >= 10x.
ACCEPTANCE_PANEL = 20
ACCEPTANCE_BUDGET = 3
ACCEPTANCE_FLOOR = 10.0


def _best_seconds(search, genome, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        search.search(genome)
        best = min(best, time.perf_counter() - started)
    return best


def test_f12_bitparallel_throughput(benchmark):
    genome = random_genome(GENOME_LENGTH, seed=1202, name="chrF12")
    donor = random_genome(50_000, seed=1203, name="chrDonor")
    rows = []
    acceptance_speedup = None
    for panel_size in PANEL_SIZES:
        guides = sample_guides_from_genome(donor, panel_size, seed=1204 + panel_size)
        for mismatches in BUDGETS:
            budget = SearchBudget(mismatches=mismatches)
            bitparallel = ParallelSearch(guides, budget, workers=1, chunk_length=CHUNK)
            matcher = MatcherStream(guides, budget, chunk_length=CHUNK)
            # Differential gate before timing: a fast wrong kernel is
            # not a result.
            assert bitparallel.search(genome) == matcher.search(genome)
            repeats = 3 if panel_size < 20 else 2
            bp_seconds = _best_seconds(bitparallel, genome, repeats)
            lut_seconds = _best_seconds(matcher, genome, repeats)
            speedup = lut_seconds / bp_seconds
            if panel_size == ACCEPTANCE_PANEL and mismatches == ACCEPTANCE_BUDGET:
                acceptance_speedup = speedup
            rows.append(
                [
                    str(panel_size),
                    str(mismatches),
                    f"{GENOME_LENGTH / lut_seconds:,.0f}",
                    f"{GENOME_LENGTH / bp_seconds:,.0f}",
                    f"{speedup:.1f}x",
                ]
            )
    table = render_table(
        ["guides", "mm", "matcher sym/s", "bitparallel sym/s", "speedup"],
        rows,
        title=(
            f"F12: streaming throughput by kernel "
            f"({GENOME_LENGTH:,} bp, chunk {CHUNK})"
        ),
    )
    save_experiment("f12_bitparallel_throughput", table)

    assert acceptance_speedup is not None
    assert acceptance_speedup >= ACCEPTANCE_FLOOR, (
        f"bit-parallel kernel is only {acceptance_speedup:.1f}x the matcher "
        f"on the {ACCEPTANCE_PANEL}-guide/mm={ACCEPTANCE_BUDGET} panel; "
        f"the F12 acceptance floor is {ACCEPTANCE_FLOOR}x"
    )

    # A measured number for the benchmark log: one cold+warm kernel
    # pass on the acceptance panel.
    guides = sample_guides_from_genome(donor, ACCEPTANCE_PANEL, seed=1224)
    budget = SearchBudget(mismatches=ACCEPTANCE_BUDGET)
    search = ParallelSearch(guides, budget, workers=1, chunk_length=CHUNK)
    hits = benchmark.pedantic(search.search, args=(genome,), rounds=2, iterations=1)
    assert hits == MatcherStream(guides, budget, chunk_length=CHUNK).search(genome)
