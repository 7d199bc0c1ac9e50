"""F11 — clean-path cost of the chaos-hardened serving edge.

The chaos-hardening PR threaded fault machinery through every socket
request: owned-buffer line framing with an oversize guard on both
ends, client-side retry bookkeeping with stamped request ids, and a
server-side idempotency record consulted on every id-carrying query.
This experiment prices that machinery where it matters — the *clean*
path, no faults injected — against the same F10-style socket workload
served by a bare client (no retry policy, no ids, no idempotency
lookups). A drained shutdown replaces the abrupt one, so the graceful
path is priced too.

Correctness is asserted unconditionally: every response in every
configuration must be bit-identical to the solo oracle. The overhead
assertion is deliberately loose (the hardened path must not double the
bare path over a warm run); the recorded table carries the exact
per-request latencies and the execution/dedup accounting proving the
idempotency layer stayed out of the way (zero deduped replays on a
clean run).
"""

import time

from repro import OffTargetSearch, OffTargetService
from repro.analysis.tables import render_table
from repro.check import check_server
from repro.service import OffTargetServer, RetryPolicy, ServiceClient

from _harness import save_experiment

REQUESTS = 24  # sequential socket round-trips per configuration


def _serve(genome):
    service = OffTargetService(background=True)
    service.add_genome("default", genome)
    server = OffTargetServer(service)
    host, port = server.start()
    return server, host, port


def _run(genome, guides, budget, oracle, *, retry):
    server, host, port = _serve(genome)
    try:
        with ServiceClient(host, port, timeout_seconds=120, retry=retry) as client:
            client.query(guides, budget)  # warm the compiled-guide cache
            started = time.perf_counter()
            for _ in range(REQUESTS):
                assert client.query(guides, budget).hits == oracle
            wall = time.perf_counter() - started
        counters = server.service.metrics.counters_with_prefix("service.server.")
        report = check_server(server)
        assert not any(
            d.severity.name == "ERROR" for d in report.diagnostics
        ), report.render()
    finally:
        server.stop()
    return wall, counters


def test_f11_chaos_overhead(benchmark, small_workload):
    genome = small_workload.genome
    guides = tuple(small_workload.library)[:3]
    budget = small_workload.budget
    oracle = OffTargetSearch(guides, budget).run(genome).hits

    bare_wall, bare_counters = _run(
        genome, guides, budget, oracle, retry=None
    )
    hardened_wall, hardened_counters = _run(
        genome, guides, budget, oracle, retry=RetryPolicy(seed=11)
    )

    # The idempotency layer must be pure bookkeeping on a clean run:
    # every request executed exactly once, nothing answered from the
    # record, nothing chaotic injected.
    assert hardened_counters.get("service.server.requests.deduped", 0) == 0
    assert hardened_counters.get("service.server.chaos_injected", 0) == 0
    assert hardened_counters["service.server.executions"] == REQUESTS + 1
    # Loose bound: stamped ids + record upkeep must not double the
    # per-request cost (the table records the true ratio).
    assert hardened_wall < 2.0 * bare_wall + 0.25

    rows = [
        ["bare client (no ids)", f"{1e3 * bare_wall / REQUESTS:.2f}", "-", "-"],
        [
            "hardened (retry + ids)",
            f"{1e3 * hardened_wall / REQUESTS:.2f}",
            f"{hardened_wall / bare_wall:.2f}x",
            f"{int(hardened_counters['service.server.executions'])}/0",
        ],
    ]
    table = render_table(
        ["serving path", "ms/request", "vs bare", "executions/deduped"],
        rows,
        title=(
            "F11: clean-path overhead of chaos hardening "
            f"({REQUESTS} warm socket requests, {len(genome):,} bp, "
            f"{len(guides)}-guide panel, {budget.mismatches} mismatches)"
        ),
    )
    save_experiment("f11_chaos_overhead", table)

    def hardened_round():
        wall, _ = _run(genome, guides, budget, oracle, retry=RetryPolicy(seed=11))
        return wall

    benchmark.pedantic(hardened_round, rounds=1, iterations=1)
