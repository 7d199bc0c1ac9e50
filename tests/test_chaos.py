"""Chaos suite: the socket serving path under seeded fault injection.

The headline invariant (ISSUE: chaos-hardened serving): under **any**
seeded :class:`~repro.service.chaos.ChaosPlan`, every request either
returns bit-identically to a solo :class:`~repro.core.OffTargetSearch`
or fails with a typed :class:`~repro.errors.ReproError` — no hangs, no
duplicate executions, no silent truncation. Four layers:

1. ``TestChaosPlan`` — the plan itself is a reproducible adversary
   (deterministic schedules, scripted mode, fault caps).
2. ``TestScriptedFaults`` — one targeted regression per action
   (dropped/truncated response writes, slowloris, garbage, oversize
   lines, mid-line disconnects, connection floods); the framing cases
   also run against the cluster router, which shares the server loop.
3. ``TestDifferentialSweep`` — 20 seeded plans driving a retrying
   client against a chaotic server; every response is checked against
   the oracle, every failure against the typed hierarchy, and the
   server against ``check_server`` (SVC005/SVC006).
4. ``TestGracefulDrain`` — drain/stop semantics in-process and under a
   real ``SIGTERM`` against a ``repro-offtarget serve`` subprocess.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import (
    Metrics,
    OffTargetSearch,
    OffTargetService,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
)
from repro.check import check_server
from repro.cluster import BackendSpec, ClusterRouter, RouterConfig
from repro.errors import ReproError, ServiceError, ServiceTransportError
from repro.service import (
    ChaosPlan,
    OffTargetServer,
    RetryPolicy,
    ServiceClient,
    open_flood,
)
from repro.service.chaos import (
    CLIENT_ACTIONS,
    DEGRADE_ACTIONS,
    SERVER_ACTIONS,
)
from repro.service.server import MAX_LINE_BYTES, guide_to_wire

from differential import DifferentialCase, assert_engines_agree
from helpers import DispatchGate
from test_service_socket import (
    REPO,
    SRC,
    start_serve_subprocess,
    write_guides_table,
)

CLIENT_TIMEOUT = 20  # every socket op in this file is bounded

# Run by ``python -c`` after a ``HELD = <marker path>`` line: ``serve``
# whose batches touch the marker, then wait for the drain to begin
# (bounded) before they run, so a signal provably lands mid-query.
HELD_SERVE = """
import sys, threading
from pathlib import Path
from repro.cli import main
from repro.service.scheduler import RequestScheduler
from repro.service.server import OffTargetServer

draining = threading.Event()
dispatch = RequestScheduler._dispatch_batch
request_drain = OffTargetServer.request_drain

def held_dispatch(self, *args):
    Path(HELD).touch()
    if draining.wait(60):
        print("# batch released by the drain", file=sys.stderr, flush=True)
    return dispatch(self, *args)

def drain_and_release(self):
    draining.set()
    request_drain(self)

RequestScheduler._dispatch_batch = held_dispatch
OffTargetServer.request_drain = drain_and_release
sys.exit(main(sys.argv[1:]))
"""

# The workload every chaotic request replays, as a differential case so
# the harness can pin the solo-search reference to the naive oracle.
_GENOME = random_genome(3000, seed=41, name="chrChaos")
CASE = DifferentialCase(
    genome=_GENOME,
    guides=tuple(sample_guides_from_genome(_GENOME, 3, seed=43)),
    budget=SearchBudget(mismatches=2),
    label="chaos-workload",
)


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
    """Solo-search hits, the bit-identical reference for every seed.

    ``assert_engines_agree`` first pins the solo search (and every
    other engine) to the naive oracle, so a chaotic response checked
    against this list is transitively checked against ground truth.
    """
    return tuple(assert_engines_agree(CASE))


def make_server(genome, *, chaos=None, **kwargs):
    service = OffTargetService(background=True, chunk_length=1 << 12)
    service.add_genome("default", genome)
    server = OffTargetServer(service, chaos=chaos, **kwargs)
    server.start()
    return server


@contextlib.contextmanager
def serving_front(kind, genome, **server_kwargs):
    """Yield ``(address, metrics, counter prefix)`` of a started front end.

    *kind* ``"server"`` is a server built from *server_kwargs*;
    ``"router"`` is a one-backend router in front of such a server.
    Both run the same JSON-lines loop, so the framing tests run against
    both; the router counts under ``route.`` and has no line-limit
    parameter, so it keeps the default ``MAX_LINE_BYTES``.
    """
    server = make_server(genome, **server_kwargs)
    router = None
    try:
        if kind == "server":
            yield server.address, server.service.metrics, "service.server."
        else:
            host, port = server.address
            router = ClusterRouter(
                RouterConfig(backends=(BackendSpec("b0", host, port),), replicas=1),
                metrics=Metrics(),
            )
            router.start(probe=False)
            yield router.address, router.metrics, "route."
    finally:
        if router is not None:
            router.stop()
        server.stop()


#: Bytes that overrun each front's line limit: the server runs with a
#: 1 KiB limit, the router with the default one.
OVERSIZE = {"server": 4096, "router": MAX_LINE_BYTES + 1}


def errors_of(report):
    return [d for d in report.diagnostics if d.severity.name == "ERROR"]


class TestChaosPlan:
    def test_same_seed_replays_the_same_schedule(self):
        plan_a = ChaosPlan(17)
        draws_a = [plan_a.draw("client.send") for _ in range(200)]
        plan_b = ChaosPlan(17)
        draws_b = [plan_b.draw("client.send") for _ in range(200)]
        assert draws_a == draws_b
        assert any(a is not None for a in draws_a)  # rate 0.25 fires
        assert any(a is None for a in draws_a)

    def test_sites_draw_independent_streams(self):
        # Interleaving draws at one site must not perturb the other's
        # schedule (each site derives its own generator stream).
        plan = ChaosPlan(99)
        reference = ChaosPlan(99)
        client_only = [reference.draw("client.send") for _ in range(50)]
        interleaved = []
        for _ in range(50):
            interleaved.append(plan.draw("client.send"))
            plan.draw("server.write")
        assert interleaved == client_only

    def test_actions_belong_to_their_site(self):
        plan = ChaosPlan(5, client_rate=1.0, server_rate=1.0)
        for _ in range(100):
            assert plan.draw("client.send") in CLIENT_ACTIONS
            assert plan.draw("server.write") in SERVER_ACTIONS

    def test_unknown_site_and_bad_rate_are_typed(self):
        with pytest.raises(ServiceError):
            ChaosPlan(0).draw("server.accept")
        with pytest.raises(ServiceError):
            ChaosPlan(0, client_rate=1.5)
        with pytest.raises(ServiceError):
            ChaosPlan.scripted({"client.send": ["explode"]})
        with pytest.raises(ServiceError):
            ChaosPlan.scripted({"nope": []})

    def test_scripted_mode_plays_in_order_then_behaves(self):
        plan = ChaosPlan.scripted(
            {"server.write": ["drop_before_write", None, "slow_write"]}
        )
        assert plan.draw("server.write") == "drop_before_write"
        assert plan.draw("server.write") is None
        assert plan.draw("server.write") == "slow_write"
        assert all(plan.draw("server.write") is None for _ in range(20))
        assert plan.faults_injected == 1  # slow_write degrades, uncounted

    def test_max_faults_caps_sabotage_but_not_degrades(self):
        plan = ChaosPlan(3, client_rate=1.0, max_faults=2)
        drawn = [plan.draw("client.send") for _ in range(300)]
        sabotage = [a for a in drawn if a is not None and a not in DEGRADE_ACTIONS]
        assert len(sabotage) == 2
        assert plan.faults_injected == 2
        tallies = plan.describe()
        assert tallies["drawn"]["client.send"] == 300

    def test_helper_lines_are_newline_terminated(self):
        plan = ChaosPlan(1, oversize_bytes=100, garbage_bytes=32)
        garbage = plan.garbage_line()
        assert garbage.endswith(b"\n") and len(garbage) == 33
        oversize = plan.oversize_line()
        assert oversize.endswith(b"\n") and len(oversize) == 101
        assert plan.garbage_line() != ChaosPlan(2).garbage_line()


class TestScriptedFaults:
    """One targeted regression per fault, via scripted plans."""

    def run_query(self, server, guides, budget, *, chaos=None, request_id=""):
        host, port = server.address
        with ServiceClient(
            host,
            port,
            timeout_seconds=CLIENT_TIMEOUT,
            retry=RetryPolicy(seed=7, base_delay_seconds=0.001),
            chaos=chaos,
        ) as client:
            return client.query(guides, budget, request_id=request_id)

    @pytest.mark.parametrize("action", ["drop_before_write", "truncate_write"])
    def test_lost_response_is_retried_without_reexecution(
        self, genome, guides, budget, oracle, action
    ):
        # The response to the first attempt is sabotaged after the query
        # executed; the retried id must be answered from the idempotency
        # record — bit-identical hits, execution count still 1.
        server = make_server(genome, chaos=ChaosPlan.scripted({"server.write": [action]}))
        try:
            result = self.run_query(
                server, guides, budget, request_id=f"lost-{action}"
            )
            assert result.hits == oracle
            assert server.execution_counts() == {f"lost-{action}": 1}
            assert errors_of(check_server(server)) == []
        finally:
            server.stop()

    def test_replay_is_byte_identical_on_the_wire(self, genome, guides, budget):
        # The record keeps a response as compact JSON text; a replay
        # decodes it, and encodes to the first answer's wire bytes.
        server = make_server(genome)
        line = json.dumps(
            {
                "op": "query",
                "id": "wire-1",
                "guides": [guide_to_wire(guide) for guide in guides],
                "budget": {
                    "mismatches": budget.mismatches,
                    "rna_bulges": budget.rna_bulges,
                    "dna_bulges": budget.dna_bulges,
                },
            }
        ).encode("ascii")
        try:
            first = server._respond(line)
            replay = server._respond(line)
            assert first["ok"] and first["num_hits"] > 0
            assert json.dumps(replay) == json.dumps(first)
            assert server.completed_response("wire-1") == replay
            assert server.execution_counts() == {"wire-1": 1}
        finally:
            server.stop()

    def test_slow_write_reassembles(self, genome, guides, budget, oracle):
        # A slowloris response (dribbled in 8-byte chunks) must still
        # reassemble into the full hit list — no silent truncation.
        plan = ChaosPlan.scripted({"server.write": ["slow_write"]})
        plan.slow_chunk_bytes = 8
        plan.slow_pause_seconds = 0.0002
        server = make_server(genome, chaos=plan)
        try:
            assert self.run_query(server, guides, budget).hits == oracle
        finally:
            server.stop()

    @pytest.mark.parametrize(
        "action",
        [
            "disconnect_before_send",
            "truncate_send",
            "garbage_line",
            "disconnect_after_send",
            "slow_send",
        ],
    )
    def test_client_side_sabotage_recovers(
        self, genome, guides, budget, oracle, action
    ):
        plan = ChaosPlan.scripted({"client.send": [action]})
        server = make_server(genome)
        try:
            result = self.run_query(
                server, guides, budget, chaos=plan, request_id=f"cs-{action}"
            )
            assert result.hits == oracle
            # disconnect_after_send delivered the request (execution 1,
            # answered from the record on retry); the others never did.
            assert server.execution_counts()[f"cs-{action}"] == 1
            assert errors_of(check_server(server)) == []
        finally:
            server.stop()

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_oversize_line_rejected_typed_then_closed(self, genome, kind):
        # Satellite 1 regression: an overlong line must be answered with
        # one typed bad_request and a close — never parsed as a truncated
        # request plus a garbage remainder (two bogus responses).
        with serving_front(kind, genome, max_line_bytes=1024) as front:
            (host, port), metrics, prefix = front
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(b"x" * OVERSIZE[kind] + b"\n" + b'{"op": "ping"}\n')
                raw.settimeout(10)
                received = bytearray()
                while True:
                    try:
                        chunk = raw.recv(1 << 16)
                    except OSError:
                        # A timeout, or a reset: closing with the rest of
                        # our input unread resets instead of ending cleanly.
                        break
                    if not chunk:
                        break
                    received.extend(chunk)
            lines = bytes(received).splitlines()
            assert len(lines) == 1  # exactly one response, then close
            response = json.loads(lines[0])
            assert response["ok"] is False
            assert response["error"] == "bad_request"
            assert "too long" in response["detail"]
            assert metrics.counter(prefix + "oversize_rejected") == 1

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_oversize_line_without_newline_is_rejected(self, genome, kind):
        # The truncation bug's other face: the limit must trip even when
        # the newline never arrives (readline(limit) used to return a
        # partial line here and parse it as a request).
        with serving_front(kind, genome, max_line_bytes=1024) as front:
            (host, port), _, _ = front
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(b"y" * OVERSIZE[kind])  # no newline
                response = json.loads(raw.makefile("rb").readline())
            assert response["ok"] is False
            assert response["error"] == "bad_request"

    @pytest.mark.parametrize("kind", ["server", "router"])
    def test_midline_disconnect_is_counted_and_dropped(self, genome, kind):
        with serving_front(kind, genome) as front:
            (host, port), metrics, prefix = front
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(b'{"op": "pi')  # partial line, then close
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if metrics.counter(prefix + "midline_disconnects"):
                    break
                time.sleep(0.02)
            assert metrics.counter(prefix + "midline_disconnects") == 1
            # The front is unharmed: a fresh client still gets answers.
            with ServiceClient(host, port, timeout_seconds=10) as client:
                assert client.ping()

    def test_connection_flood_is_shed_typed(self, genome):
        server = make_server(genome, max_connections=2)
        host, port = server.address
        flood = []
        try:
            flood = list(open_flood(host, port, 6, timeout_seconds=5))
            assert len(flood) == 6  # all connect; the excess get refused
            refused = 0
            for held in flood:
                held.settimeout(5)
                try:
                    line = held.makefile("rb").readline()
                except OSError:
                    continue
                if line:
                    payload = json.loads(line)
                    assert payload["error"] == "overloaded"
                    assert "connection limit" in payload["detail"]
                    refused += 1
            assert refused == 4
            metrics = server.service.metrics
            assert metrics.counter("service.connections.rejected") == 4
        finally:
            for held in flood:
                held.close()
            server.stop()

    def test_internal_errors_are_not_blamed_on_the_client(
        self, genome, guides, budget, monkeypatch
    ):
        # Satellite 3: a stdlib exception escaping server-side code is an
        # `internal` error; malformed wire payloads stay `bad_request`.
        server = make_server(genome)
        host, port = server.address
        try:
            with ServiceClient(host, port, timeout_seconds=10) as client:
                with pytest.raises(ServiceError) as bad:
                    client.roundtrip(
                        {"op": "query", "guides": [{"name": "g"}]}
                    )  # missing protospacer -> malformed wire
                assert "malformed query" in str(bad.value)

                def explode(*args, **kwargs):
                    raise KeyError("server-side bug")

                monkeypatch.setattr(server.service, "query_async", explode)
                raw = client.roundtrip({"op": "ping"})  # connection intact
                assert raw["op"] == "pong"
                response = server._respond(
                    json.dumps(
                        {
                            "op": "query",
                            "guides": [
                                {"name": "g", "protospacer": guides[0].protospacer}
                            ],
                        }
                    ).encode("ascii")
                )
                assert response["ok"] is False
                assert response["error"] == "internal"
                metrics = server.service.metrics
                assert metrics.counter("service.server.internal_errors") == 1
        finally:
            server.stop()


class TestRetryPolicy:
    def test_validation_is_typed(self):
        with pytest.raises(ServiceError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServiceError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ServiceError):
            RetryPolicy(jitter_fraction=2.0)

    def test_backoff_is_capped_exponential_with_seeded_jitter(self):
        import numpy as np

        policy = RetryPolicy(
            base_delay_seconds=0.1, max_delay_seconds=0.5, jitter_fraction=0.5
        )
        rng = np.random.default_rng(0)
        delays = [policy.delay_seconds(n, rng) for n in range(1, 8)]
        ceilings = [0.1, 0.2, 0.4, 0.5, 0.5, 0.5, 0.5]
        for delay, ceiling in zip(delays, ceilings):
            assert ceiling * 0.5 <= delay <= ceiling
        rng_b = np.random.default_rng(0)
        assert delays == [policy.delay_seconds(n, rng_b) for n in range(1, 8)]

    def test_only_safe_classes_are_retryable(self):
        from repro.errors import (
            CapacityError,
            DeadlineExceededError,
            ServiceOverloadedError,
        )

        policy = RetryPolicy()
        assert policy.is_retryable(ServiceTransportError("reset"))
        assert policy.is_retryable(ServiceOverloadedError("shed"))
        no_overload = RetryPolicy(retry_overloaded=False)
        assert not no_overload.is_retryable(ServiceOverloadedError("shed"))
        for final in (
            DeadlineExceededError("late"),
            CapacityError("big"),
            ServiceError("bad"),
            ValueError("bug"),
        ):
            assert not policy.is_retryable(final)

    def test_unstamped_query_is_never_resent(self, genome, guides, budget):
        # A query that somehow lacks an id must not be retried (a resend
        # could double-execute); transport failure surfaces immediately.
        server = make_server(
            genome, chaos=ChaosPlan.scripted({"server.write": ["drop_before_write"]})
        )
        host, port = server.address
        try:
            client = ServiceClient(
                host,
                port,
                timeout_seconds=10,
                retry=RetryPolicy(seed=3, base_delay_seconds=0.001),
            )
            with client:
                payload = {
                    "op": "query",
                    "guides": [
                        {"name": "g", "protospacer": guides[0].protospacer}
                    ],
                    "budget": {"mismatches": 1},
                }  # no "id"
                with pytest.raises(ServiceTransportError):
                    client.roundtrip(payload)
            assert client.metrics.counter("service.client.retries") == 0
        finally:
            server.stop()


class TestDifferentialSweep:
    """The acceptance sweep: >= 20 seeded plans, oracle or typed error."""

    @pytest.mark.parametrize("seed", range(20))
    def test_every_request_is_oracle_or_typed(
        self, genome, guides, budget, oracle, seed
    ):
        plan = ChaosPlan(
            seed,
            client_rate=0.3,
            server_rate=0.3,
            oversize_bytes=8192,
            slow_pause_seconds=0.0002,
        )
        server = make_server(genome, chaos=plan, max_line_bytes=4096)
        host, port = server.address
        answered = failed = 0
        try:
            with ServiceClient(
                host,
                port,
                timeout_seconds=CLIENT_TIMEOUT,
                retry=RetryPolicy(seed=seed, base_delay_seconds=0.001),
                chaos=plan,
            ) as client:
                for request in range(6):
                    try:
                        result = client.query(
                            guides, budget, request_id=f"sweep-{seed}-{request}"
                        )
                    except ReproError:
                        failed += 1  # typed, allowed; never a hang
                    else:
                        assert result.hits == oracle, f"seed {seed} diverged"
                        answered += 1
            assert answered + failed == 6
            counts = server.execution_counts()
            assert all(count == 1 for count in counts.values()), counts
            assert errors_of(check_server(server)) == []
        finally:
            server.stop()
        assert server.stopped and not server.accepting
        assert server.active_connections == 0

    def test_sweep_injects_meaningfully(self, genome, guides, budget, oracle):
        # Guard against a vacuous sweep: at least one seeded plan must
        # actually fire faults on both sides of the wire.
        plan = ChaosPlan(1, client_rate=0.5, server_rate=0.5)
        server = make_server(genome, chaos=plan)
        host, port = server.address
        try:
            with ServiceClient(
                host,
                port,
                timeout_seconds=CLIENT_TIMEOUT,
                retry=RetryPolicy(seed=1, base_delay_seconds=0.001),
                chaos=plan,
            ) as client:
                for request in range(8):
                    try:
                        client.query(guides, budget, request_id=f"inj-{request}")
                    except ReproError:
                        pass
            tallies = plan.describe()["injected"]
            assert tallies.get("client.send", 0) > 0
            assert tallies.get("server.write", 0) > 0
        finally:
            server.stop()


class TestCheckServerRules:
    """SVC005–SVC007 catch sabotaged idempotency/lifecycle state."""

    def test_healthy_server_passes_with_svc007_info(self, genome):
        server = make_server(genome)
        try:
            report = check_server(server)
            assert report.ok, report.render()
            assert "SVC007" in {d.rule for d in report.diagnostics}
        finally:
            server.stop()

    def test_svc005_duplicate_execution(self, genome):
        server = make_server(genome)
        try:
            server._executions["req-1"] = 2  # sabotage: a double-execution
            report = check_server(server)
            assert "SVC005" in {d.rule for d in errors_of(report)}
        finally:
            server.stop()

    def test_svc005_record_over_capacity(self, genome):
        server = make_server(genome, idempotency_capacity=1)
        try:
            server._completed["a"] = '{"id":"a"}'  # sabotage: bypass the LRU
            server._completed["b"] = '{"id":"b"}'
            report = check_server(server)
            assert "SVC005" in {d.rule for d in errors_of(report)}
        finally:
            server.stop()

    def test_svc005_mismatched_recorded_response(self, genome):
        server = make_server(genome)
        try:
            server._completed["a"] = '{"id":"b","ok":true}'
            report = check_server(server)
            assert "SVC005" in {d.rule for d in errors_of(report)}
        finally:
            server.stop()

    def test_svc006_draining_but_still_accepting(self, genome):
        server = make_server(genome)
        try:
            server._draining.set()  # sabotage: flag without closing listener
            report = check_server(server)
            assert "SVC006" in {d.rule for d in errors_of(report)}
        finally:
            server._draining.clear()
            server.stop()

    def test_svc006_stopped_with_live_handlers(self, genome):
        server = make_server(genome)
        release = threading.Event()
        straggler = threading.Thread(target=release.wait, daemon=True)
        straggler.start()
        try:
            server.stop()
            server._handlers[straggler] = None  # sabotage: abandoned handler
            report = check_server(server)
            assert "SVC006" in {d.rule for d in errors_of(report)}
        finally:
            release.set()
            straggler.join(timeout=5)


class TestGracefulDrain:
    def test_drain_answers_inflight_then_stops(self, genome, guides, budget, oracle):
        # A query admitted before the drain began must be answered in
        # full; the drain then closes the listener and joins handlers.
        service = OffTargetService(background=True, chunk_length=1 << 12)
        service.add_genome("default", genome)
        gate = DispatchGate(service.scheduler)
        server = OffTargetServer(service)
        host, port = server.start()
        results = []

        def slow_query():
            with ServiceClient(host, port, timeout_seconds=CLIENT_TIMEOUT) as client:
                results.append(client.query(guides, budget, request_id="inflight"))

        worker = threading.Thread(target=slow_query)
        worker.start()
        gate.wait_reached()  # the query's batch is held mid-dispatch
        server.request_drain()
        assert not results, "answered before the drain began"
        gate.release()
        worker.join(timeout=CLIENT_TIMEOUT)
        assert not worker.is_alive()
        assert results and results[0].hits == oracle
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not server.stopped:
            time.sleep(0.01)
        assert server.stopped and not server.accepting
        assert server.active_connections == 0
        assert errors_of(check_server(server)) == []
        assert service.metrics.counter("service.drain.completed") == 1

    def test_draining_server_refuses_new_connections(self, genome):
        server = make_server(genome)
        host, port = server.address
        with ServiceClient(host, port, timeout_seconds=10) as client:
            assert client.drain()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not server.stopped:
            time.sleep(0.01)
        assert server.stopped
        with pytest.raises(ServiceTransportError):
            with ServiceClient(host, port, timeout_seconds=2) as late:
                late.ping()

    def test_stop_is_drain(self, genome, guides, budget):
        # Satellite 2 regression: stop() must join in-flight handlers
        # before closing the service, so a straggling request is
        # answered (or typed), never abandoned mid-execution.
        service = OffTargetService(background=True, chunk_length=1 << 12)
        service.add_genome("default", genome)
        gate = DispatchGate(service.scheduler)
        server = OffTargetServer(service)
        host, port = server.start()
        outcome = []

        def straggler():
            try:
                with ServiceClient(host, port, timeout_seconds=CLIENT_TIMEOUT) as c:
                    outcome.append(c.query(guides, budget, request_id="straggle"))
            except ReproError as error:
                outcome.append(error)

        worker = threading.Thread(target=straggler)
        worker.start()
        gate.wait_reached()  # the straggler's batch is held mid-dispatch
        # stop() is synchronous (it returns only when drained), so it
        # runs on its own thread while the held batch is released.
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not server.draining:
            time.sleep(0.001)
        assert server.draining and not outcome, "answered before stop() began"
        gate.release()
        stopper.join(timeout=CLIENT_TIMEOUT)
        assert not stopper.is_alive()
        worker.join(timeout=CLIENT_TIMEOUT)
        assert not worker.is_alive()
        assert outcome, "in-flight request was abandoned without an answer"
        assert server.stopped and server.active_connections == 0
        assert errors_of(check_server(server)) == []

    def test_health_op_reports_readiness(self, genome):
        server = make_server(genome, max_connections=9)
        host, port = server.address
        try:
            with ServiceClient(host, port, timeout_seconds=10) as client:
                health = client.health()
            assert health["live"] and health["ready"]
            assert health["draining"] is False
            assert health["max_connections"] == 9
            assert health["sessions"] == ["default"]
            assert health["queue_depth"] == 0
            assert health["cache"]["capacity"] > 0
        finally:
            server.stop()
        assert server.health()["live"] is False
        assert server.health()["ready"] is False

    def test_sigterm_finishes_inflight_query(self, tmp_path, genome, guides, budget):
        # Acceptance: SIGTERM arriving mid-query completes that query
        # before the serve subprocess exits 0.
        oracle = OffTargetSearch(guides, budget).run(genome).hits
        held = tmp_path / "batch-held"
        process, port = start_serve_subprocess(
            tmp_path, genome, bootstrap=f"HELD = {str(held)!r}\n" + HELD_SERVE
        )
        results = []
        try:
            with ServiceClient("127.0.0.1", port, timeout_seconds=60) as client:

                def inflight():
                    results.append(
                        client.query(guides, budget, request_id="sigterm-q")
                    )

                worker = threading.Thread(target=inflight)
                worker.start()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline and not held.exists():
                    time.sleep(0.005)
                assert held.exists(), "the query's batch never reached dispatch"
                process.send_signal(signal.SIGTERM)
                worker.join(timeout=60)
                assert not worker.is_alive()
            assert process.wait(timeout=60) == 0
            assert results and results[0].hits == oracle
            stderr = process.stderr.read()
            assert "draining" in stderr
            assert "# batch released by the drain" in stderr
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_cli_query_retries_flag(self, tmp_path, genome, guides):
        # --retries 1 disables retry: nothing listening -> quick exit 2.
        table = tmp_path / "guides.txt"
        write_guides_table(table, guides[:1])
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                str(table),
                "--port",
                str(free_port),
                "--retries",
                "1",
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode == 2
        assert "cannot connect" in completed.stderr
