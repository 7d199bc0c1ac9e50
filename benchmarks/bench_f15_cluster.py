"""F15 — sharded-cluster throughput scaling and failover latency.

The paper's scaling argument moved one level up: if throughput comes
from adding execution units behind a common abstraction, then adding
*nodes* behind the wire protocol should scale serving throughput the
same way adding automata lanes scaled a single pass. This experiment
prices that claim on the functional workload: a fixed burst of
concurrent client panels is pushed through ``ClusterRouter`` fronting
1, 2, and 3 backend servers, against the F10-style baseline of the
same burst against one directly-addressed server (no router hop).

Expect the small functional workload to show router *overhead*, not
speedup: an unsaturated single node coalesces every concurrent panel
into one streaming genome pass, while sharding the same panels across
N nodes necessarily runs N passes and adds a proxy hop. The cluster
tier buys horizontal headroom and fault tolerance — its throughput
argument only engages once one node's scheduler saturates, which this
deliberately fast workload does not attempt.

The second table prices the fault-tolerance headline: with the cluster
warm, the primary backend for a panel is crashed (`die()`) and the
next query's wall time — connection-failure detection + same-id
re-issue to the surviving replica — is compared against a warm routed
query. Correctness is asserted unconditionally throughout: every
response, including the failover one, must be bit-identical to the
solo-search oracle of its panel.
"""

import threading
import time

from repro import Metrics, OffTargetSearch, OffTargetService
from repro.analysis.tables import render_table
from repro.cluster import BackendSpec, ClusterRouter, RouterConfig, route_key
from repro.service import OffTargetServer, RetryPolicy, ServiceClient

from _harness import save_experiment

BACKEND_COUNTS = (1, 2, 3)
SESSIONS = 8  # concurrent client panels; keys spread across the ring
REQUESTS_PER_SESSION = 2  # second request is cache-warm on its node
CLIENT_TIMEOUT = 300


def _panel_of(library, index):
    guides = list(library)
    return tuple(guides[(index + offset) % len(guides)] for offset in range(3))


def _start_backends(genome, count):
    backends = {}
    specs = []
    for index in range(count):
        service = OffTargetService(background=True)
        for session in range(SESSIONS):
            service.add_genome(f"s{session}", genome)
        server = OffTargetServer(service)
        host, port = server.start()
        name = f"b{index}"
        backends[name] = server
        specs.append(BackendSpec(name=name, host=host, port=port))
    return backends, tuple(specs)


def _drive_burst(host, port, library, budget, oracles, tag):
    """SESSIONS client threads, each sending its panel twice; wall time."""
    failures = []

    def run_session(session):
        panel = _panel_of(library, session)
        try:
            with ServiceClient(
                host, port, timeout_seconds=CLIENT_TIMEOUT
            ) as client:
                for request in range(REQUESTS_PER_SESSION):
                    result = client.query(
                        panel,
                        budget,
                        session_id=f"s{session}",
                        request_id=f"{tag}-s{session}-{request}",
                    )
                    if result.hits != oracles[session % len(oracles)]:
                        failures.append(f"session {session} diverged")
        except Exception as error:  # noqa: BLE001 - collected, then raised
            failures.append(f"session {session}: {error!r}")

    threads = [
        threading.Thread(target=run_session, args=(session,))
        for session in range(SESSIONS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=CLIENT_TIMEOUT)
    wall = time.perf_counter() - started
    assert not failures, failures
    return wall


def test_f15_cluster_scaling(benchmark, small_workload):
    genome = small_workload.genome
    library = small_workload.library
    budget = small_workload.budget
    oracles = [
        OffTargetSearch(_panel_of(library, index), budget).run(genome).hits
        for index in range(len(list(library)))
    ]
    total_requests = SESSIONS * REQUESTS_PER_SESSION

    # Baseline: the same burst against one server, no router hop.
    backends, _ = _start_backends(genome, 1)
    (baseline_server,) = backends.values()
    try:
        host, port = baseline_server.address
        direct_wall = _drive_burst(host, port, library, budget, oracles, "direct")
    finally:
        baseline_server.stop()

    rows = [
        [
            "direct",
            1,
            f"{direct_wall:.2f}",
            f"{total_requests / direct_wall:.1f}",
            "1.00x",
        ]
    ]
    for count in BACKEND_COUNTS:
        backends, specs = _start_backends(genome, count)
        router = ClusterRouter(
            RouterConfig(backends=specs, replicas=min(2, count)),
            metrics=Metrics(),
        )
        try:
            host, port = router.start(probe=False)
            wall = _drive_burst(host, port, library, budget, oracles, f"n{count}")
            stats = router.stats()
            assert stats["forwarded"] == total_requests
            assert stats["failovers"] == 0
            served_on = {
                name
                for name, server in backends.items()
                if server.execution_counts()
            }
            if count > 1:
                assert len(served_on) > 1, "keys did not spread across nodes"
            rows.append(
                [
                    "routed",
                    count,
                    f"{wall:.2f}",
                    f"{total_requests / wall:.1f}",
                    f"{direct_wall / wall:.2f}x",
                ]
            )
        finally:
            router.stop()
            for server in backends.values():
                server.stop()

    table = render_table(
        ["mode", "backends", "wall s", "req/s", "vs direct"],
        rows,
        title=(
            f"F15: cluster throughput, {SESSIONS} concurrent panels x "
            f"{REQUESTS_PER_SESSION} requests, {len(genome):,} bp functional "
            f"workload ({budget.mismatches} mismatches)"
        ),
    )
    save_experiment("f15_cluster", table)

    # Failover latency: crash the primary of a warm panel, time the
    # re-issued query against a warm routed one.
    backends, specs = _start_backends(genome, 3)
    router = ClusterRouter(
        RouterConfig(backends=specs, replicas=2, failure_threshold=1),
        metrics=Metrics(),
    )
    try:
        host, port = router.start(probe=False)
        panel = _panel_of(library, 0)
        with ServiceClient(
            host,
            port,
            timeout_seconds=CLIENT_TIMEOUT,
            retry=RetryPolicy(seed=15, base_delay_seconds=0.01),
        ) as client:
            client.query(panel, budget, session_id="s0", request_id="fo-warm-0")
            started = time.perf_counter()
            warm = client.query(
                panel, budget, session_id="s0", request_id="fo-warm-1"
            )
            warm_latency = time.perf_counter() - started
            key = route_key("s0", panel, budget)
            live = set(router.membership.live_names())
            primary = next(
                name for name in router.ring.preference(key) if name in live
            )
            backends[primary].die()
            started = time.perf_counter()
            failed_over = client.query(
                panel, budget, session_id="s0", request_id="fo-reissue"
            )
            failover_latency = time.perf_counter() - started
        assert warm.hits == oracles[0]
        assert failed_over.hits == oracles[0]
        assert router.metrics.counter("route.reissues") >= 1
        for server in backends.values():
            counts = server.execution_counts()
            assert all(count == 1 for count in counts.values()), counts
        failover_table = render_table(
            ["path", "latency ms"],
            [
                ["warm routed query", f"{warm_latency * 1000:.1f}"],
                ["failover (kill + same-id re-issue)", f"{failover_latency * 1000:.1f}"],
            ],
            title="F15: failover latency, 3 backends, primary crashed mid-panel",
        )
        save_experiment("f15_cluster_failover", failover_table)
    finally:
        router.stop()
        for server in backends.values():
            server.stop()

    # The measured kernel: one warm routed burst against 3 backends.
    backends, specs = _start_backends(genome, 3)
    router = ClusterRouter(
        RouterConfig(backends=specs, replicas=2), metrics=Metrics()
    )
    try:
        host, port = router.start(probe=False)
        _drive_burst(host, port, library, budget, oracles, "prewarm")

        def routed_burst():
            return _drive_burst(host, port, library, budget, oracles, "bench")

        benchmark.pedantic(routed_burst, rounds=1, iterations=1)
    finally:
        router.stop()
        for server in backends.values():
            server.stop()
