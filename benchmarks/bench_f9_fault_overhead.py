"""F9 — cost of fault tolerance and observability on the F8 workload.

The supervised executor in `repro.core.parallel` wraps every shard in
attempt/timeout accounting and result validation, and threads a
metrics collector through the pipeline. This experiment prices that
machinery on the same 2 Mbp calibration workload F8 scales: the bare
production kernel (`bitparallel.find_hits`, whole genome, one call)
versus the instrumented sharded path (workers=1 — chunking,
validation and metrics, no pool), a clean pooled run, and a pooled run
that loses a worker mid-flight and recovers (one injected kill, one
pool rebuild). Every configuration runs the executor as production
builds it, so a failed shard is resubmitted at once.

Each wall time is the median of ``REPEATS`` runs; the fault columns
come from the median run. Correctness is asserted unconditionally:
every run of every configuration — including the faulted one — must
produce the identical hit list. The overhead assertion is loose
(bookkeeping must not double the kernel time); the recorded table
carries the exact ratios.
"""

import os
import statistics
import time

from repro.core import bitparallel
from repro.core.parallel import FaultPlan, ParallelSearch
from repro.analysis.tables import render_table

from _harness import save_experiment

CHUNK_LENGTH = 1 << 19  # match F8: 4+ chunks on the 2 Mbp workload
REPEATS = 5


def _median_run(callable_, *args):
    """Run ``REPEATS`` times: the median run's result and wall seconds,
    plus every run's result."""
    runs = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = callable_(*args)
        runs.append((time.perf_counter() - started, result))
    median = statistics.median(wall for wall, _ in runs)
    wall, result = min(runs, key=lambda run: abs(run[0] - median))
    results = [result for _, result in runs]
    return result, wall, results


def test_f9_fault_overhead(benchmark, default_workload):
    genome = default_workload.genome
    guides = default_workload.library
    budget = default_workload.budget

    baseline_hits, baseline_wall, baseline_runs = _median_run(
        bitparallel.find_hits, genome, guides, budget
    )
    assert all(hits == baseline_hits for hits in baseline_runs)

    def configuration(label, **kwargs):
        executor = ParallelSearch(guides, budget, chunk_length=CHUNK_LENGTH, **kwargs)
        (_, stats), wall, runs = _median_run(executor.search_with_stats, genome)
        for hits, _ in runs:
            assert hits == baseline_hits, label
        ft = stats["fault_tolerance"]
        return {
            "label": label,
            "wall": wall,
            "retries": ft["retries"],
            "rebuilds": ft["pool_rebuilds"],
            "recovered": sum(ft["failures"].values()),
        }

    runs = [
        {"label": "bare kernel", "wall": baseline_wall, "retries": 0,
         "rebuilds": 0, "recovered": 0},
        configuration("sharded, workers=1 (instrumented)", workers=1),
        configuration("pooled, workers=2, clean", workers=2),
        configuration(
            "pooled, workers=2, one worker killed",
            workers=2,
            fault_plan=FaultPlan.kill(1),
        ),
    ]

    rows = [
        [
            run["label"],
            f"{1000 * run['wall']:.1f}",
            f"{run['wall'] / baseline_wall:.2f}x",
            run["recovered"],
            run["retries"],
            run["rebuilds"],
        ]
        for run in runs
    ]
    table = render_table(
        ["configuration", "wall ms", "vs kernel", "faults", "retries", "rebuilds"],
        rows,
        title=(
            "F9: fault-tolerance/observability overhead, 2 Mbp functional "
            f"workload (10 guides, 3 mismatches; median of {REPEATS} runs; "
            f"host has {os.cpu_count() or 1} core(s))"
        ),
    )
    save_experiment("f9_fault_overhead", table)

    # Instrumentation alone (workers=1: same kernel, plus sharding,
    # validation, and metrics) must stay within 2x of the bare kernel.
    instrumented = runs[1]["wall"]
    assert instrumented / baseline_wall < 2.0
    # The faulted run really did recover something.
    assert runs[3]["recovered"] >= 1

    executor = ParallelSearch(
        guides, budget, workers=1, chunk_length=CHUNK_LENGTH
    )
    hits = benchmark.pedantic(executor.search, args=(genome,), rounds=1, iterations=1)
    assert hits == baseline_hits
