"""F13 — Banded bit-parallel kernel versus the matcher on bulged budgets.

PR 6's F12 measured the mismatch-only Shift-And kernel; bulged budgets
still routed to the matcher's banded DP, so exactly the budget shapes
the paper showcases got none of the speedup. This table measures the
diagonal-band bit-parallel engine against the matcher across bulged
budget shapes (RNA-only, DNA-only, mixed), streamed over the same
chunks — ``ParallelSearch(workers=1)`` for the banded kernel, the
reference matcher driven per chunk by ``MatcherStream`` with identical
overlap and dedupe — so the ratio isolates the kernel. The matcher is a
reference implementation only; no production path runs it.

The genome is smaller than F12's (the matcher's bulged DP runs a
boolean-array band per candidate and is ~50x slower than its LUT scan,
so Mbp-scale matcher baselines are minutes per cell), but both engines
see the same input and the ratio is what the acceptance pins.

Acceptance (ISSUE 7): >= 5x over the matcher on the 20-guide panel at
mismatches=2, rna_bulges=1, dna_bulges=1. Both kernels' hit lists are
asserted bit-identical before any timing is trusted.
"""

import time

from repro import ParallelSearch, SearchBudget, random_genome, sample_guides_from_genome
from repro.analysis.tables import render_table

from _harness import MatcherStream, save_experiment

GENOME_LENGTH = 200_000
PANEL_SIZES = (1, 5, 20)
#: (mismatches, rna_bulges, dna_bulges) budget shapes.
BUDGET_SHAPES = ((1, 1, 0), (1, 0, 1), (2, 1, 1))
#: Bigger blocks than F12: the banded kernel's per-block pass is a
#: fixed number of vector ops per pattern position, so larger blocks
#: amortise it further (and real scans stream Mbp chunks anyway).
CHUNK = 1 << 17

#: The ISSUE acceptance cell: 20 guides, mm=2, one bulge each way.
ACCEPTANCE_PANEL = 20
ACCEPTANCE_SHAPE = (2, 1, 1)
ACCEPTANCE_FLOOR = 5.0


def _best_seconds(search, genome, repeats):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        search.search(genome)
        best = min(best, time.perf_counter() - started)
    return best


def test_f13_bulge_kernel_throughput(benchmark):
    genome = random_genome(GENOME_LENGTH, seed=1302, name="chrF13")
    donor = random_genome(50_000, seed=1303, name="chrDonor")
    rows = []
    acceptance_speedup = None
    for panel_size in PANEL_SIZES:
        guides = sample_guides_from_genome(donor, panel_size, seed=1304 + panel_size)
        for shape in BUDGET_SHAPES:
            mismatches, rna, dna = shape
            budget = SearchBudget(
                mismatches=mismatches, rna_bulges=rna, dna_bulges=dna
            )
            banded = ParallelSearch(guides, budget, workers=1, chunk_length=CHUNK)
            lut = MatcherStream(guides, budget, chunk_length=CHUNK)
            # Differential gate before timing: a fast wrong kernel is
            # not a result.
            assert banded.search(genome) == lut.search(genome)
            repeats = 2
            banded_seconds = _best_seconds(banded, genome, repeats)
            lut_seconds = _best_seconds(lut, genome, repeats)
            speedup = lut_seconds / banded_seconds
            if panel_size == ACCEPTANCE_PANEL and shape == ACCEPTANCE_SHAPE:
                acceptance_speedup = speedup
            rows.append(
                [
                    str(panel_size),
                    f"{mismatches}/{rna}/{dna}",
                    f"{GENOME_LENGTH / lut_seconds:,.0f}",
                    f"{GENOME_LENGTH / banded_seconds:,.0f}",
                    f"{speedup:.1f}x",
                ]
            )
    table = render_table(
        ["guides", "mm/rna/dna", "matcher sym/s", "bitparallel sym/s", "speedup"],
        rows,
        title=(
            f"F13: streaming throughput by kernel on bulged budgets "
            f"({GENOME_LENGTH:,} bp, chunk {CHUNK})"
        ),
    )
    save_experiment("f13_bulge_kernel_throughput", table)

    assert acceptance_speedup is not None
    assert acceptance_speedup >= ACCEPTANCE_FLOOR, (
        f"banded kernel is only {acceptance_speedup:.1f}x the matcher on the "
        f"{ACCEPTANCE_PANEL}-guide mm/rna/dna={ACCEPTANCE_SHAPE} panel; "
        f"the F13 acceptance floor is {ACCEPTANCE_FLOOR}x"
    )

    # A measured number for the benchmark log: the acceptance cell
    # through the banded kernel.
    mismatches, rna, dna = ACCEPTANCE_SHAPE
    budget = SearchBudget(mismatches=mismatches, rna_bulges=rna, dna_bulges=dna)
    guides = sample_guides_from_genome(donor, ACCEPTANCE_PANEL, seed=1324)
    search = ParallelSearch(guides, budget, workers=1, chunk_length=CHUNK)
    hits = benchmark.pedantic(search.search, args=(genome,), rounds=2, iterations=1)
    assert hits == MatcherStream(guides, budget, chunk_length=CHUNK).search(genome)
