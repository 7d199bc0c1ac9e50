"""Cluster suite: consistent-hash routing, membership, cross-node chaos.

The headline invariant (ISSUE: fault-tolerant sharded serving): behind
a :class:`~repro.cluster.ClusterRouter` fronting N backend servers,
every client request either returns bit-identically to a solo
:class:`~repro.core.OffTargetSearch` or fails with a typed
:class:`~repro.errors.ReproError` — and **per backend** every request
id executes at most once, whatever the router re-issued during
failover. Layers:

1. ``TestHashRing`` / ``TestRouteKey`` — deterministic, balanced,
   canonically-keyed assignment; quarantine displaces only the keys
   that must move.
2. ``TestMembership`` — the hysteresis ladder against real backends:
   kill/quarantine/restart/rejoin, not-ready demotion, blackholed
   probes, traffic failures feeding the same ladder.
3. ``TestRouterConfigRules`` — the SVC008–SVC011 config checks.
4. ``TestClusterRouting`` / ``TestFailover`` / ``TestWarmupForwarding``
   — e2e routing, same-id failover re-issue, artefact adoption.
5. ``TestCrossNodeChaosSweep`` — the 20-seed acceptance sweep with
   backend kills mid-run and router→backend transport sabotage.
6. ``TestRetryDeadline`` — the client retry schedule bounded by an
   overall deadline budget.
7. ``TestRouteSubprocess`` — ``repro-offtarget route`` against three
   real ``serve`` subprocesses, SIGTERM drain, ``--stats-json``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro import (
    Metrics,
    OffTargetSearch,
    OffTargetService,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.check import check_router_config, check_server
from repro.cluster import (
    BackendSpec,
    ClusterRouter,
    HashRing,
    Membership,
    RouterConfig,
    route_key,
    specs_from_endpoints,
)
from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import (
    ChaosPlan,
    OffTargetServer,
    RetryPolicy,
    ServiceClient,
    open_flood,
)

from differential import DifferentialCase, assert_engines_agree
from helpers import DispatchGate
from test_service_socket import (
    REPO,
    SRC,
    SUBPROCESS_TIMEOUT,
    start_serve_subprocess,
)

CLIENT_TIMEOUT = 20  # every socket op in this file is bounded

# The workload every routed request replays — the same differential
# case shape as the single-node chaos suite, so the oracle fixture is
# transitively pinned to the naive reference search.
_GENOME = random_genome(3000, seed=61, name="chrCluster")
CASE = DifferentialCase(
    genome=_GENOME,
    guides=tuple(sample_guides_from_genome(_GENOME, 3, seed=62)),
    budget=SearchBudget(mismatches=2),
    label="cluster-workload",
)

# A second genome for register-broadcast tests: sessions must exist on
# every backend because panels of one session hash to different nodes.
_GENOME2 = random_genome(2200, seed=71, name="chrSecond")


@pytest.fixture(scope="module")
def genome():
    return CASE.genome


@pytest.fixture(scope="module")
def guides():
    return CASE.guides


@pytest.fixture(scope="module")
def budget():
    return CASE.budget


@pytest.fixture(scope="module")
def oracle():
    """Solo-search hits, the bit-identical reference for every request."""
    return tuple(assert_engines_agree(CASE))


@pytest.fixture(scope="module")
def genome2():
    return _GENOME2


def make_backend(genome, *, port=0, chaos=None, **kwargs):
    service = OffTargetService(background=True, chunk_length=1 << 12)
    service.add_genome("default", genome)
    server = OffTargetServer(service, port=port, chaos=chaos, **kwargs)
    if port:
        # Rebinding a just-died server's port can transiently hit
        # EADDRINUSE while the old acceptor thread's accept() poll
        # (<= 0.2 s) still pins the closed listener fd; retry briefly,
        # exactly as a process supervisor would.
        deadline = time.monotonic() + 5
        while True:
            try:
                server.start()
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
    else:
        server.start()
    return server


def make_cluster(genome, count=3, *, replicas=2, chaos=None, **config_kwargs):
    """N in-process backends behind a router with isolated metrics.

    The router starts with ``probe=False``: liveness changes happen
    only through explicit ``probe_once`` calls or router-observed
    traffic failures, which is what makes these tests deterministic.
    """
    backends = {}
    specs = []
    for index in range(count):
        server = make_backend(genome)
        host, port = server.address
        name = f"b{index}"
        backends[name] = server
        specs.append(BackendSpec(name=name, host=host, port=port))
    config = RouterConfig(backends=tuple(specs), replicas=replicas, **config_kwargs)
    router = ClusterRouter(config, chaos=chaos, metrics=Metrics())
    router.start(probe=False)
    return router, backends


def stop_cluster(router, backends):
    router.stop()
    for server in backends.values():
        server.stop()


def router_client(router, **kwargs):
    host, port = router.address
    kwargs.setdefault("timeout_seconds", CLIENT_TIMEOUT)
    return ServiceClient(host, port, **kwargs)


def primary_of(router, key):
    """The live backend the router would forward *key* to first."""
    live = set(router.membership.live_names())
    for name in router.ring.preference(key):
        if name in live:
            return name
    return ""


def errors_of(report):
    return [d for d in report.diagnostics if d.severity.name == "ERROR"]


def rules_of(report):
    return [d.rule for d in report.errors]


class TestHashRing:
    def test_assignment_is_deterministic_and_total(self):
        ring = HashRing(("b0", "b1", "b2"))
        again = HashRing(("b2", "b1", "b0"))  # construction-order blind
        keys = [f"key-{index}" for index in range(50)]
        assert [ring.owner(key) for key in keys] == [
            again.owner(key) for key in keys
        ]
        for key in keys:
            preference = ring.preference(key)
            assert sorted(preference) == ["b0", "b1", "b2"]
            assert preference[0] == ring.owner(key)

    def test_spread_is_reasonable(self):
        names = tuple(f"b{index}" for index in range(4))
        ring = HashRing(names, virtual_nodes=64)
        owners = Counter(ring.owner(f"panel-{index}") for index in range(2000))
        assert set(owners) == set(names)
        for name in names:
            assert 0.10 <= owners[name] / 2000 <= 0.45, owners

    def test_quarantine_moves_only_the_displaced_keys(self):
        # Dropping one name from consideration must promote exactly
        # the next name in each affected key's walk and leave every
        # other assignment untouched — the consistent-hash property
        # that keeps failover cache damage local.
        ring = HashRing(("b0", "b1", "b2"))
        for index in range(300):
            preference = ring.preference(f"k{index}")
            survivors = [name for name in preference if name != "b1"]
            if preference[0] != "b1":
                assert survivors[0] == preference[0]
            else:
                assert survivors[0] == preference[1]

    def test_validation_is_typed(self):
        with pytest.raises(ServiceError):
            HashRing(())
        with pytest.raises(ServiceError):
            HashRing(("b0", "b0"))
        with pytest.raises(ServiceError):
            HashRing(("b0",), virtual_nodes=0)


class TestRouteKey:
    def test_key_is_canonical_over_names_and_order(self, guides, budget):
        renamed = tuple(
            replace(guide, name=f"alias-{index}")
            for index, guide in enumerate(guides)
        )
        assert route_key("s", guides, budget) == route_key("s", renamed, budget)
        assert route_key("s", tuple(reversed(guides)), budget) == route_key(
            "s", guides, budget
        )

    def test_key_separates_sessions_and_budgets(self, guides, budget):
        assert route_key("a", guides, budget) != route_key("b", guides, budget)
        assert route_key("a", guides, budget) != route_key(
            "a", guides, SearchBudget(mismatches=3)
        )


class TestMembership:
    def test_backend_spec_parse(self):
        spec = BackendSpec.parse("127.0.0.1:9100", name="b0")
        assert (spec.name, spec.host, spec.port) == ("b0", "127.0.0.1", 9100)
        assert spec.endpoint == "127.0.0.1:9100"
        for bad in ("127.0.0.1", ":9100", "127.0.0.1:web", "host:0"):
            with pytest.raises(ServiceError):
                BackendSpec.parse(bad)

    def test_specs_from_endpoints_names_are_stable(self):
        specs = specs_from_endpoints(["127.0.0.1:9100", "127.0.0.1:9101"])
        assert [spec.name for spec in specs] == ["b0", "b1"]
        assert [spec.port for spec in specs] == [9100, 9101]

    def test_kill_quarantine_restart_rejoin(self, genome):
        server = make_backend(genome)
        host, port = server.address
        membership = Membership(
            [BackendSpec("b0", host, port)],
            failure_threshold=2,
            recovery_threshold=2,
            probe_timeout_seconds=1.0,
        )
        assert membership.probe_once() == {"b0": True}
        health = membership.health_of("b0")
        assert health["ready"] and health["uptime_seconds"] >= 0
        server.die()
        # Hysteresis: one failure is not enough to demote...
        assert membership.probe_once() == {"b0": True}
        # ...the threshold-th consecutive failure is.
        assert membership.probe_once() == {"b0": False}
        assert membership.live_names() == ()
        restarted = make_backend(genome, port=port)
        try:
            # Recovery pays its own full ladder before traffic returns.
            assert membership.probe_once() == {"b0": False}
            assert membership.probe_once() == {"b0": True}
            state = membership.describe()["b0"]
            assert state["quarantines"] == 1
            assert state["rejoins"] == 1
        finally:
            restarted.stop()
            server.stop()

    def test_not_ready_backend_counts_as_probe_failure(self, genome):
        service = OffTargetService(background=True, chunk_length=1 << 12)
        service.add_genome("default", genome)
        server = OffTargetServer(service)
        host, port = server.start()
        try:
            membership = Membership(
                [BackendSpec("b0", host, port)],
                failure_threshold=1,
                recovery_threshold=1,
            )
            assert membership.probe_once() == {"b0": True}
            service.close()  # alive on the socket, refusing work
            assert membership.probe_once() == {"b0": False}
            assert (
                membership.describe()["b0"]["last_error"]
                == "backend reports not ready"
            )
        finally:
            server.stop()

    def test_blackholed_probe_quarantines_then_recovers(self, genome):
        server = make_backend(genome)
        host, port = server.address
        plan = ChaosPlan.scripted({"probe.send": ["blackhole_probe"]})
        membership = Membership(
            [BackendSpec("b0", host, port)],
            failure_threshold=1,
            recovery_threshold=1,
            chaos=plan,
        )
        try:
            # The backend is perfectly healthy; only the probe path is
            # sabotaged — quarantine must still trip, and lift as soon
            # as probes get through again.
            assert membership.probe_once() == {"b0": False}
            assert membership.live_names() == ()
            assert membership.probe_once() == {"b0": True}
            assert membership.live_names() == ("b0",)
        finally:
            server.stop()

    def test_traffic_failures_feed_the_same_ladder(self):
        metrics = Metrics()
        membership = Membership(
            [BackendSpec("b0", "127.0.0.1", 9100)],
            failure_threshold=2,
            recovery_threshold=1,
            metrics=metrics,
        )
        membership.report_failure("b0", "connection reset")
        assert membership.is_live("b0")
        membership.report_failure("b0", "connection reset")
        assert not membership.is_live("b0")
        assert metrics.counter("route.members.traffic_failures") == 2
        assert metrics.counter("route.members.quarantines") == 1

    def test_unknown_backend_is_typed(self):
        membership = Membership([BackendSpec("b0", "127.0.0.1", 9100)])
        with pytest.raises(ServiceError):
            membership.probe("nope")
        with pytest.raises(ServiceError):
            membership.spec_of("nope")

    def test_validation_is_typed(self):
        spec = BackendSpec("b0", "127.0.0.1", 9100)
        with pytest.raises(ServiceError):
            Membership([])
        with pytest.raises(ServiceError):
            Membership([spec, BackendSpec("b0", "127.0.0.1", 9101)])
        with pytest.raises(ServiceError):
            Membership([spec], probe_interval_seconds=0)
        with pytest.raises(ServiceError):
            Membership([spec], failure_threshold=0)


class TestRouterConfigRules:
    @staticmethod
    def specs(count=2):
        return tuple(
            BackendSpec(f"b{index}", "127.0.0.1", 9100 + index)
            for index in range(count)
        )

    def test_svc008_empty_backends(self):
        report = check_router_config(RouterConfig())
        assert "SVC008" in rules_of(report)
        with pytest.raises(ServiceError):
            ClusterRouter(RouterConfig())

    def test_svc009_duplicate_endpoints_and_names(self):
        shared_port = (
            BackendSpec("b0", "127.0.0.1", 9100),
            BackendSpec("b1", "127.0.0.1", 9100),
        )
        assert "SVC009" in rules_of(
            check_router_config(RouterConfig(backends=shared_port))
        )
        shared_name = (
            BackendSpec("x", "127.0.0.1", 9100),
            BackendSpec("x", "127.0.0.1", 9101),
        )
        assert "SVC009" in rules_of(
            check_router_config(RouterConfig(backends=shared_name))
        )

    def test_svc010_replica_bounds(self):
        specs = self.specs()
        assert "SVC010" in rules_of(
            check_router_config(RouterConfig(backends=specs, replicas=0))
        )
        # More replicas than backends is degraded-but-runnable: warn.
        report = check_router_config(RouterConfig(backends=specs, replicas=5))
        assert not report.errors
        assert any(d.rule == "SVC010" for d in report.warnings)

    def test_svc011_timing_and_limit_bounds(self):
        specs = self.specs()
        for bad in (
            {"probe_interval_seconds": 0},
            {"probe_timeout_seconds": -1},
            {"failure_threshold": 0},
            {"recovery_threshold": 0},
            {"drain_deadline_seconds": -1},
            {"max_inflight": 0},
            {"virtual_nodes": 0},
        ):
            report = check_router_config(RouterConfig(backends=specs, **bad))
            assert "SVC011" in rules_of(report), bad
        slow = check_router_config(
            RouterConfig(
                backends=specs,
                probe_timeout_seconds=2.0,
                probe_interval_seconds=1.0,
            )
        )
        assert not slow.errors
        assert any(d.rule == "SVC011" for d in slow.warnings)

    def test_healthy_config_is_clean(self):
        report = check_router_config(RouterConfig(backends=self.specs(3)))
        assert not report.errors
        assert not report.warnings


class TestClusterRouting:
    def test_query_through_router_is_oracle_identical(
        self, genome, guides, budget, oracle
    ):
        router, backends = make_cluster(genome, 3)
        try:
            with router_client(router) as client:
                assert client.ping()
                result = client.query(guides, budget, request_id="route-1")
            assert result.hits == oracle
            executed = {
                name: server.execution_counts()
                for name, server in backends.items()
            }
            assert sum(len(counts) for counts in executed.values()) == 1
            assert all(
                count == 1
                for counts in executed.values()
                for count in counts.values()
            )
            assert router.metrics.counter("route.forwarded") == 1
        finally:
            stop_cluster(router, backends)

    def test_panel_affinity_pins_a_panel_to_one_backend(
        self, genome, guides, budget, oracle
    ):
        router, backends = make_cluster(genome, 3)
        key = route_key("default", guides, budget)
        owner = primary_of(router, key)
        try:
            with router_client(router) as client:
                for index in range(4):
                    result = client.query(
                        guides, budget, request_id=f"affinity-{index}"
                    )
                    assert result.hits == oracle
            counts = backends[owner].execution_counts()
            assert sorted(counts) == [f"affinity-{index}" for index in range(4)]
            assert all(count == 1 for count in counts.values())
            for name, server in backends.items():
                if name != owner:
                    assert server.execution_counts() == {}
        finally:
            stop_cluster(router, backends)

    def test_register_broadcasts_to_every_live_backend(
        self, genome, genome2, budget
    ):
        guides2 = tuple(sample_guides_from_genome(genome2, 2, seed=72))
        expected = OffTargetSearch(guides2, budget).run(genome2).hits
        router, backends = make_cluster(genome, 3)
        try:
            with router_client(router) as client:
                created = client.register_genome(
                    "second", [(genome2.name, genome2.text)]
                )
                assert created
                # Idempotent everywhere: the re-broadcast re-acks.
                assert not client.register_genome(
                    "second", [(genome2.name, genome2.text)]
                )
                result = client.query(
                    guides2, budget, session_id="second", request_id="second-1"
                )
            assert result.hits == expected
            for server in backends.values():
                assert "second" in server.health()["sessions"]
            assert router.metrics.counter("route.registers") == 2
        finally:
            stop_cluster(router, backends)

    def test_admission_control_sheds_typed_overloaded(
        self, genome, guides, budget, oracle
    ):
        router, backends = make_cluster(genome, 2, max_inflight=1)
        try:
            with router_client(router) as client:
                with router._state_lock:
                    router._inflight = 1  # pin the admission gauge full
                with pytest.raises(ServiceOverloadedError):
                    client.query(guides, budget, request_id="shed-1")
                with router._state_lock:
                    router._inflight = 0
                result = client.query(guides, budget, request_id="shed-2")
            assert result.hits == oracle
            assert router.metrics.counter("route.shed") == 1
        finally:
            stop_cluster(router, backends)

    def test_node_local_ops_are_refused(self, genome):
        router, backends = make_cluster(genome, 2)
        try:
            with router_client(router) as client:
                response = client.exchange({"op": "cache_adopt", "artefact": ""})
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert "node-local" in response["detail"]
        finally:
            stop_cluster(router, backends)

    @pytest.mark.parametrize(
        "mistake",
        [
            {"protospacer": "ACGTACGTACGTACGTACZZ"},
            {"pam": "QQQ"},
            {"op": "design", "budget": [2]},
            {"op": "design", "budget": "x"},
        ],
        ids=["protospacer", "pam", "design-budget-list", "design-budget-string"],
    )
    def test_client_mistakes_answer_like_a_direct_server(
        self, genome, guides, mistake
    ):
        # A GuideError/PamError raised while keying a query, or a design
        # budget that is not a JSON object, is the client's mistake: the
        # router answers what a backend answers.
        router, backends = make_cluster(genome, 2)
        if mistake.get("op") == "design":
            payload = {"region": genome.text[:400], **mistake}
        else:
            payload = {
                "op": "query",
                "guides": [
                    {"name": "g", "protospacer": guides[0].protospacer, **mistake}
                ],
                "budget": {"mismatches": 1},
            }
        try:
            with router_client(router) as client:
                routed = client.exchange(payload)
            host, port = backends["b0"].address
            with ServiceClient(host, port, timeout_seconds=CLIENT_TIMEOUT) as client:
                direct = client.exchange(payload)
            assert direct["error"] == "bad_request"
            assert routed == direct
            assert router.metrics.counter("route.internal_errors") == 0
        finally:
            stop_cluster(router, backends)

    def test_connection_cap_refuses_the_excess_typed(self, genome):
        # The router inherits the server's accept loop and its cap of
        # 64: each connection past it gets one typed overloaded line
        # instead of a handler thread of its own.
        router, backends = make_cluster(genome, 1)
        flood = []
        try:
            host, port = router.address
            excess = 3
            flood = list(
                open_flood(host, port, router.max_connections + excess)
            )
            assert len(flood) == router.max_connections + excess

            def answered():
                return select.select(flood, [], [], 0.1)[0]

            deadline = time.monotonic() + 10
            while len(answered()) < excess and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.3)  # grace: no accepted connection answers
            refused = answered()
            assert len(refused) == excess
            for held in refused:
                held.settimeout(5)
                response = json.loads(held.makefile("rb").readline())
                assert response["error"] == "overloaded"
                assert "connection limit" in response["detail"]
            assert router.metrics.counter("route.connections.rejected") == excess
        finally:
            for held in flood:
                held.close()
            stop_cluster(router, backends)

    def test_request_drain_runs_one_drain(self, genome):
        # A signal handler and the drain op may both ask to drain; the
        # router starts one drain thread, as a backend does.
        router, backends = make_cluster(genome, 1, drain_deadline_seconds=5.0)
        before = set(threading.enumerate())
        try:
            host, port = router.address
            with socket.create_connection((host, port), timeout=10) as raw:
                # A half-sent line keeps its handler, and so the drain,
                # open until the peer closes.
                raw.sendall(b'{"op": "pi')
                deadline = time.monotonic() + 10
                while router.active_connections < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                for _ in range(3):
                    router.request_drain()
                drains = [
                    thread
                    for thread in threading.enumerate()
                    if thread not in before and thread.name.endswith("drain")
                ]
                assert len(drains) == 1
            drains[0].join(timeout=10)
            assert not drains[0].is_alive()
            assert router.stopped and not router.accepting
            assert router.metrics.counter("route.drain.completed") == 1
        finally:
            stop_cluster(router, backends)

    def test_routers_without_metrics_do_not_share_counters(self):
        config = RouterConfig(backends=(BackendSpec("b0", "127.0.0.1", 9),))
        first, second = ClusterRouter(config), ClusterRouter(config)
        first.metrics.incr("route.requests")
        assert first.metrics.counter("route.requests") == 1
        assert second.metrics.counter("route.requests") == 0

    def test_router_health_and_stats_ops(self, genome, guides, budget):
        router, backends = make_cluster(genome, 3)
        try:
            with router_client(router) as client:
                client.query(guides, budget, request_id="obs-1")
                health = client.health()
                stats = client.stats()
            assert health["role"] == "router"
            assert health["ready"] is True
            assert set(health["live_members"]) == {"b0", "b1", "b2"}
            assert health["inflight"] == 0
            assert stats["role"] == "router"
            assert stats["forwarded"] == 1
            assert stats["failovers"] == 0
            assert set(stats["backends"]) == {"b0", "b1", "b2"}
        finally:
            stop_cluster(router, backends)

    def test_backend_health_carries_load_signals(self, genome, guides, budget):
        # The enriched health op: the signals a load-aware membership
        # prober reads without a separate stats roundtrip.
        server = make_backend(genome)
        host, port = server.address
        try:
            with ServiceClient(
                host, port, timeout_seconds=CLIENT_TIMEOUT
            ) as client:
                client.query(guides, budget, request_id="h-1")
                health = client.health()
            assert health["inflight"] == 0
            assert health["uptime_seconds"] > 0
            assert health["sessions"] == ["default"]
            cache = health["cache"]
            assert cache["misses"] == len(guides)
            assert cache["adoptions"] == 0
            assert health["executions"] == 1
        finally:
            server.stop()


class TestFailover:
    def test_kill_mid_batch_reissues_same_id_to_a_replica(
        self, genome, guides, budget, oracle
    ):
        # The deterministic heart of the tentpole: the primary dies
        # while its batch holds the query; the router must re-issue
        # the identical payload — same request id — to the next
        # candidate, and the client sees one oracle answer.
        router, backends = make_cluster(genome, 3, failure_threshold=1)
        key = route_key("default", guides, budget)
        primary = primary_of(router, key)
        gate = DispatchGate(backends[primary].service.scheduler)
        outcome = {}

        def issue():
            with router_client(router) as client:
                outcome["result"] = client.query(
                    guides, budget, request_id="mid-batch-1"
                )

        try:
            worker = threading.Thread(target=issue)
            worker.start()
            gate.wait_reached()  # admitted by the primary, not answered
            assert not outcome, "the primary answered before it died"
            backends[primary].die()
            worker.join(timeout=CLIENT_TIMEOUT)
            assert not worker.is_alive(), "failover hung"
            assert outcome["result"].hits == oracle
            assert router.metrics.counter("route.failovers") >= 1
            assert router.metrics.counter("route.reissues") >= 1
            # Per backend, the id executed at most once — the dead
            # primary admitted it before dying; no surviving node may
            # have executed twice.
            survivors_serving = 0
            for name, server in backends.items():
                counts = server.execution_counts()
                assert set(counts) <= {"mid-batch-1"}, (name, counts)
                assert all(count == 1 for count in counts.values()), (
                    name,
                    counts,
                )
                if name != primary and counts:
                    survivors_serving += 1
            assert survivors_serving == 1
            # The traffic failure fed the membership ladder directly.
            assert not router.membership.is_live(primary)
        finally:
            gate.release()
            stop_cluster(router, backends)

    def test_all_candidates_dead_is_typed_overloaded(
        self, genome, guides, budget
    ):
        router, backends = make_cluster(genome, 2, failure_threshold=1)
        try:
            for server in backends.values():
                server.die()
            with router_client(router) as client:
                # First attempt: both candidates fail over and are
                # quarantined by their traffic failures.
                with pytest.raises(ServiceOverloadedError):
                    client.query(guides, budget, request_id="doomed-1")
                assert router.membership.live_names() == ()
                # Second attempt: no candidates at all, still typed.
                with pytest.raises(ServiceOverloadedError):
                    client.query(guides, budget, request_id="doomed-2")
                health = client.health()
            assert router.metrics.counter("route.no_backend") >= 1
            assert health["ready"] is False
            for server in backends.values():
                assert server.execution_counts() == {}
        finally:
            stop_cluster(router, backends)


class TestWarmupForwarding:
    def test_displaced_panel_adopts_the_holders_artefacts(
        self, genome, guides, budget, oracle
    ):
        router, backends = make_cluster(
            genome, 2, replicas=1, failure_threshold=1, recovery_threshold=1
        )
        key = route_key("default", guides, budget)
        holder = primary_of(router, key)
        target = next(name for name in backends if name != holder)
        try:
            with router_client(router) as client:
                assert client.query(
                    guides, budget, request_id="warm-1"
                ).hits == oracle
                assert set(router.compiled_holders().values()) == {holder}
                # Quarantine the holder: routing moves off it, but the
                # node itself stays up — exports still work, which is
                # the point (quarantine gates routing, not artefacts).
                router.membership.report_failure(holder, "operator quarantine")
                assert router.membership.live_names() == (target,)
                assert client.query(
                    guides, budget, request_id="warm-2"
                ).hits == oracle
            assert router.metrics.counter("route.warmup_forwards") == len(guides)
            assert set(router.compiled_holders().values()) == {target}
            # The target served from adopted artefacts, not recompiles.
            cache = backends[target].health()["cache"]
            assert cache["adoptions"] == len(guides)
            assert cache["misses"] == 0
            assert backends[target].execution_counts() == {"warm-2": 1}
        finally:
            stop_cluster(router, backends)


class TestQuarantineRejoin:
    def test_recovered_backend_rejoins_within_one_probe_cycle(
        self, genome, guides, budget, oracle
    ):
        # The acceptance statement, literally: a killed node is
        # quarantined, a restart on the same endpoint rejoins after
        # ONE probe_once call, and the very next query lands on it.
        router, backends = make_cluster(
            genome, 2, replicas=1, failure_threshold=1, recovery_threshold=1
        )
        key = route_key("default", guides, budget)
        primary = primary_of(router, key)
        host, port = backends[primary].address
        restarted = None
        try:
            backends[primary].die()
            assert router.membership.probe_once()[primary] is False
            with router_client(router) as client:
                # Routed around the quarantined node, still oracle-true.
                assert client.query(
                    guides, budget, request_id="rq-1"
                ).hits == oracle
                restarted = make_backend(genome, port=port)
                assert router.membership.probe_once()[primary] is True
                state = router.membership.describe()[primary]
                assert state["quarantines"] == 1
                assert state["rejoins"] == 1
                assert client.query(
                    guides, budget, request_id="rq-2"
                ).hits == oracle
            assert restarted.execution_counts() == {"rq-2": 1}
            assert router.metrics.counter("route.members.rejoins") == 1
        finally:
            if restarted is not None:
                restarted.stop()
            stop_cluster(router, backends)


class TestCrossNodeChaosSweep:
    """The acceptance sweep: 20 seeded plans across a 3-node cluster."""

    @pytest.mark.parametrize("seed", range(20))
    def test_every_request_is_oracle_or_typed(
        self, genome, guides, budget, oracle, seed
    ):
        plan = ChaosPlan(
            seed,
            router_rate=0.25,
            backend_rate=0.2,
            slow_pause_seconds=0.0002,
        )
        router, backends = make_cluster(
            genome,
            3,
            chaos=plan,
            failure_threshold=2,
            recovery_threshold=1,
        )
        key = route_key("default", guides, budget)
        alive = set(backends)
        answered = failed = 0
        try:
            host, port = router.address
            with ServiceClient(
                host,
                port,
                timeout_seconds=CLIENT_TIMEOUT,
                retry=RetryPolicy(seed=seed, base_delay_seconds=0.001),
            ) as client:
                for request in range(6):
                    # backend.serve is the harness's crash schedule:
                    # the plan decides when a backend dies, the test
                    # kills the one the router would route to next
                    # (always leaving at least one node standing).
                    action = plan.draw("backend.serve")
                    if action == "kill_mid_batch" and len(alive) > 1:
                        victim = next(
                            (
                                name
                                for name in router.ring.preference(key)
                                if name in alive
                            ),
                            None,
                        )
                        if victim is not None:
                            backends[victim].die()
                            alive.discard(victim)
                    try:
                        result = client.query(
                            guides, budget, request_id=f"cx-{seed}-{request}"
                        )
                    except ReproError:
                        failed += 1  # typed, allowed; never a hang
                    else:
                        assert result.hits == oracle, f"seed {seed} diverged"
                        answered += 1
            assert answered + failed == 6
            # Per backend — dead ones included, their state is still
            # inspectable post-mortem — every id executed exactly once.
            for name, server in backends.items():
                counts = server.execution_counts()
                assert all(count == 1 for count in counts.values()), (
                    seed,
                    name,
                    counts,
                )
            for name in alive:
                assert errors_of(check_server(backends[name])) == []
        finally:
            stop_cluster(router, backends)


class TestRetryDeadline:
    def test_retry_schedule_is_clamped_to_the_deadline(
        self, genome, guides, budget
    ):
        # Eight retryable failures are on offer, but the request's
        # timeout is spent long before the attempt budget: the client
        # must give up typed instead of burning all eight.
        server = make_backend(
            genome,
            chaos=ChaosPlan.scripted(
                {"server.write": ["drop_before_write"] * 8}
            ),
        )
        host, port = server.address
        try:
            client = ServiceClient(
                host,
                port,
                timeout_seconds=10,
                retry=RetryPolicy(seed=5, max_attempts=8, base_delay_seconds=0.2),
            )
            started = time.monotonic()
            with client:
                with pytest.raises(DeadlineExceededError):
                    client.query(
                        guides,
                        budget,
                        request_id="deadline-1",
                        timeout_seconds=0.25,
                    )
            elapsed = time.monotonic() - started
            assert elapsed < 5, "deadline did not bound the schedule"
            assert (
                client.metrics.counter("service.client.deadline_exhausted") == 1
            )
            assert client.metrics.counter("service.client.retries") <= 3
        finally:
            server.stop()

    def test_request_timeout_bounds_retries_too(self, genome, guides, budget):
        server = make_backend(
            genome,
            chaos=ChaosPlan.scripted(
                {"server.write": ["drop_before_write"] * 8}
            ),
        )
        host, port = server.address
        try:
            client = ServiceClient(
                host,
                port,
                timeout_seconds=10,
                retry=RetryPolicy(
                    seed=7, max_attempts=8, base_delay_seconds=0.15
                ),
            )
            with client:
                with pytest.raises(DeadlineExceededError):
                    client.query(
                        guides,
                        budget,
                        request_id="deadline-2",
                        timeout_seconds=0.2,
                    )
            assert (
                client.metrics.counter("service.client.deadline_exhausted") == 1
            )
        finally:
            server.stop()

    def test_generous_deadline_still_recovers(
        self, genome, guides, budget, oracle
    ):
        server = make_backend(
            genome,
            chaos=ChaosPlan.scripted({"server.write": ["drop_before_write"]}),
        )
        host, port = server.address
        try:
            client = ServiceClient(
                host,
                port,
                timeout_seconds=10,
                retry=RetryPolicy(seed=9, base_delay_seconds=0.001),
            )
            with client:
                result = client.query(
                    guides, budget, request_id="recover-1", timeout_seconds=30.0
                )
            assert result.hits == oracle
            assert client.metrics.counter("service.client.retries") == 1
            assert server.execution_counts() == {"recover-1": 1}
        finally:
            server.stop()


def start_route_subprocess(backend_ports, *extra_args):
    """Launch ``python -m repro route`` and parse the announce line."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "route",
            "--backends",
            *[f"127.0.0.1:{port}" for port in backend_ports],
            "--port",
            "0",
            "--probe-interval",
            "0.2",
            "--probe-timeout",
            "1.0",
            *extra_args,
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    announce: list[str] = []

    def read_announce() -> None:
        announce.append(process.stdout.readline())

    reader = threading.Thread(target=read_announce, daemon=True)
    reader.start()
    reader.join(timeout=SUBPROCESS_TIMEOUT)
    if not announce or "# routing" not in announce[0]:
        process.kill()
        raise AssertionError(
            f"router never announced; stderr: {process.stderr.read()}"
        )
    port = int(announce[0].rstrip().rsplit(":", 1)[-1])
    return process, port


class TestRouteSubprocess:
    def test_three_backend_cluster_end_to_end(self, tmp_path, genome, guides):
        budget = SearchBudget(mismatches=2)
        expected = OffTargetSearch(guides, budget).run(genome).hits
        stats_path = tmp_path / "route-stats.json"
        servers = [start_serve_subprocess(tmp_path, genome) for _ in range(3)]
        processes = [process for process, _ in servers]
        ports = [port for _, port in servers]
        router_process = None
        try:
            router_process, router_port = start_route_subprocess(
                ports, "--stats-json", str(stats_path)
            )
            with ServiceClient(
                "127.0.0.1", router_port, timeout_seconds=60
            ) as client:
                assert client.ping()
                health = client.health()
                assert health["role"] == "router"
                assert len(health["live_members"]) == 3
                first = client.query(guides, budget, request_id="e2e-1")
                second = client.query(guides, budget, request_id="e2e-2")
                stats = client.stats()
            assert first.hits == expected
            assert second.hits == expected
            assert stats["role"] == "router"
            assert stats["forwarded"] == 2
            assert stats["failovers"] == 0
            # SIGTERM drains the router and flushes --stats-json.
            router_process.send_signal(signal.SIGTERM)
            assert router_process.wait(timeout=SUBPROCESS_TIMEOUT) == 0
            payload = json.loads(stats_path.read_text())
            assert payload["command"] == "route"
            assert payload["stats"]["forwarded"] >= 2
            for port in ports:
                with ServiceClient(
                    "127.0.0.1", port, timeout_seconds=60
                ) as client:
                    client.shutdown()
            for process in processes:
                assert process.wait(timeout=SUBPROCESS_TIMEOUT) == 0
        finally:
            for process in processes + (
                [router_process] if router_process is not None else []
            ):
                if process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)

    def test_invalid_config_exits_2_with_report(self):
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "route",
                "--backends",
                "127.0.0.1:9100",
                "127.0.0.1:9100",
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert "SVC009" in completed.stderr
