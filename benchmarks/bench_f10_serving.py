"""F10 — serving-layer coalescing throughput vs one-search-per-request.

The automata-processing economics the serving layer is built on: one
streaming genome pass serves every resident automaton, and a compiled
automaton is paid for once. This experiment prices both amortisation
axes on the small functional workload at 1/4/16 concurrent clients.
Each client submits one overlapping guide panel; the baseline runs a
fresh `OffTargetSearch` per request (one compile + one genome pass
each). The service dispatches on idle: its batch thread takes every
panel queued when it wakes, and the panels submitted while a batch
runs form the next one, so a burst costs at most two multi-guide
passes over the session's genome.

Correctness is asserted unconditionally: every service response must be
bit-identical to the solo oracle run of its own (guides, budget). The
recorded table carries wall times, amortized genome passes per request,
and the compiled-guide cache hit rate.
"""

import time

from repro import OffTargetSearch, OffTargetService
from repro.analysis.tables import render_table

from _harness import save_experiment

CLIENT_COUNTS = (1, 4, 16)


def _client_mix(library, index):
    """Client *index*'s panel: 3 guides, rotated so panels overlap."""
    guides = list(library)
    return tuple(guides[(index + offset) % len(guides)] for offset in range(3))


def test_f10_serving_coalescing(benchmark, small_workload):
    genome = small_workload.genome
    library = small_workload.library
    budget = small_workload.budget

    oracles = {
        index: OffTargetSearch(_client_mix(library, index), budget).run(genome).hits
        for index in range(max(CLIENT_COUNTS))
    }

    rows = []
    for clients in CLIENT_COUNTS:
        # two bursts per round: the second is cache-warm, exercising
        # both amortisation axes (coalesced passes + compiled reuse)
        mixes = [_client_mix(library, index) for index in range(clients)] * 2

        started = time.perf_counter()
        baseline = [
            OffTargetSearch(mix, budget).run(genome).hits for mix in mixes
        ]
        baseline_wall = time.perf_counter() - started
        for index, hits in enumerate(baseline):
            assert hits == oracles[index % clients]

        with OffTargetService(background=True) as service:
            service.add_genome("default", genome)
            started = time.perf_counter()
            served = []
            for burst in range(2):
                futures = [
                    service.query_async(mix, budget)
                    for mix in mixes[burst * clients : (burst + 1) * clients]
                ]
                served.extend(future.result(timeout=300) for future in futures)
            serving_wall = time.perf_counter() - started
            stats = service.stats()

        for index, result in enumerate(served):
            assert result.hits == oracles[index % clients], (
                f"request {index} of {clients} clients x 2 bursts"
            )
        completed = stats["requests"]["completed"]
        assert completed == 2 * clients
        assert stats["requests"]["shed"] == 0
        assert stats["cache"]["hit_rate"] > 0  # burst 2 reused burst 1's automata
        passes_per_request = stats["genome_passes"] / completed
        if clients > 1:
            # a burst is submitted far faster than a batch runs, so it
            # takes at most two passes: what was queued when the batch
            # thread woke, then everything submitted while that ran
            assert passes_per_request < 1.0
        if clients == 16:
            assert passes_per_request <= 0.15

        rows.append(
            [
                clients,
                f"{baseline_wall:.2f}",
                f"{serving_wall:.2f}",
                f"{baseline_wall / serving_wall:.2f}x",
                f"{passes_per_request:.2f}",
                f"{stats['cache']['hit_rate']:.0%}",
            ]
        )

    table = render_table(
        [
            "clients",
            "per-request s",
            "coalesced s",
            "speedup",
            "passes/request",
            "cache hit rate",
        ],
        rows,
        title=(
            "F10: serving-layer coalescing vs one-search-per-request, "
            f"{len(genome):,} bp functional workload "
            f"(3-guide panels, {budget.mismatches} mismatches)"
        ),
    )
    save_experiment("f10_serving", table)

    def serve_round():
        with OffTargetService(background=True) as service:
            service.add_genome("default", genome)
            futures = [
                service.query_async(_client_mix(library, index), budget)
                for index in range(4)
            ]
            return [future.result(timeout=300) for future in futures]

    served = benchmark.pedantic(serve_round, rounds=1, iterations=1)
    for index, result in enumerate(served):
        assert result.hits == oracles[index]
