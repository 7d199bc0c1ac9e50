"""End-to-end tests of the JSON-lines socket front end.

Three layers of realism, all with bounded timeouts:

1. In-process :class:`OffTargetServer` + :class:`ServiceClient` — wire
   protocol behaviour (ping/stats/errors/typed exceptions) without
   subprocess overhead.
2. A real ``python -m repro serve`` subprocess queried over the socket
   — results compared bit-for-bit against a direct in-process
   :class:`OffTargetSearch`, then a clean ``shutdown`` op.
3. The ``repro-offtarget query`` CLI as a subprocess — exit code 0 on
   success, the distinct :data:`EXIT_OVERLOADED` (3) when the service
   sheds, and 2 when nothing is listening.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import (
    OffTargetSearch,
    OffTargetService,
    SearchBudget,
    random_genome,
    sample_guides_from_genome,
    write_fasta,
)
from repro.cli import EXIT_OVERLOADED
from repro.errors import ServiceError, ServiceOverloadedError
from repro.service import OffTargetServer, RetryPolicy, ServiceClient
from repro.service.server import guide_to_wire

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SUBPROCESS_TIMEOUT = 120  # generous bound; normal runs take a few seconds


@pytest.fixture(scope="module")
def genome():
    return random_genome(4000, seed=23, name="chrSock")


@pytest.fixture(scope="module")
def guides(genome):
    return tuple(sample_guides_from_genome(genome, 3, seed=27))


def write_guides_table(path: Path, guides) -> None:
    path.write_text(
        "".join(f"{g.name}\t{g.protospacer}\n" for g in guides), encoding="ascii"
    )


@pytest.fixture()
def live_server(genome):
    """An in-process server over a background-mode service."""
    service = OffTargetService(background=True, chunk_length=1 << 12)
    service.add_genome("default", genome)
    server = OffTargetServer(service)
    host, port = server.start()
    try:
        yield host, port, service
    finally:
        server.stop()


class TestWireProtocol:
    def test_ping_and_stats(self, live_server):
        host, port, _ = live_server
        with ServiceClient(host, port, timeout_seconds=10) as client:
            assert client.ping()
            stats = client.stats()
            assert stats["sessions"][0]["session"] == "default"
            assert "coalesced_batches" in stats

    def test_query_roundtrip_bit_identical(self, live_server, genome, guides):
        host, port, _ = live_server
        budget = SearchBudget(mismatches=2)
        expected = OffTargetSearch(guides, budget).run(genome).hits
        with ServiceClient(host, port, timeout_seconds=30) as client:
            result = client.query(guides, budget, request_id="wire-1")
            again = client.query(guides, budget, request_id="wire-2")
        assert result.request_id == "wire-1"
        assert result.hits == expected
        assert again.hits == expected

    def test_malformed_line_reports_bad_request(self, live_server):
        host, port, _ = live_server
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall(b"this is not json\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"] == "bad_request"

    def test_unknown_op_and_bad_query_are_typed(self, live_server):
        host, port, _ = live_server
        with ServiceClient(host, port, timeout_seconds=10) as client:
            with pytest.raises(ServiceError):
                client.roundtrip({"op": "frobnicate"})
            with pytest.raises(ServiceError):
                client.roundtrip({"op": "query", "guides": []})
            with pytest.raises(ServiceError):
                client.roundtrip(
                    {
                        "op": "query",
                        "guides": [{"name": "g", "protospacer": "ACGT"}],
                        "session": "no-such-session",
                    }
                )
            assert client.ping()  # connection survives request errors

    @pytest.mark.parametrize("op", ["query", "design"])
    def test_invalid_timeout_is_bad_request_before_admission(
        self, live_server, genome, guides, op
    ):
        host, port, service = live_server
        if op == "query":
            payload = {"op": op, "guides": [guide_to_wire(guides[0])]}
        else:
            payload = {"op": op, "region": genome.text[:300]}
        with socket.create_connection((host, port), timeout=10) as raw:
            reader = raw.makefile("rb")
            for timeout in (float("nan"), float("inf"), 0, -1):
                line = json.dumps({**payload, "timeout": timeout}) + "\n"
                raw.sendall(line.encode("ascii"))
                response = json.loads(reader.readline())
                assert response["ok"] is False, timeout
                assert response["error"] == "bad_request", response
                assert "timeout" in response["detail"]
        # Refused while decoding: no query was admitted, and no design
        # pipeline started (its vetting query would have been admitted).
        assert service.stats()["requests"]["admitted"] == 0

    @pytest.mark.parametrize(
        "op, fields",
        [
            ("query", {"budget": {"mismatches": 2.5}}),
            ("query", {"budget": {"dna_bulges": True}}),
            ("query", {"budget": [2]}),
            ("design", {"budget": {"mismatches": 2.5}}),
            ("design", {"guide_length": 20.9}),
            ("design", {"guide_length": True}),
            ("design", {"include_hits": "false"}),
        ],
        ids=[
            "query-float-mismatches",
            "query-bool-bulges",
            "query-budget-list",
            "design-float-mismatches",
            "design-float-guide-length",
            "design-bool-guide-length",
            "design-string-include-hits",
        ],
    )
    def test_mistyped_fields_are_bad_request_before_admission(
        self, live_server, genome, guides, op, fields
    ):
        # Budget fields and guide_length must be JSON integers (not
        # booleans) and include_hits a JSON boolean; nothing is coerced.
        host, port, service = live_server
        if op == "query":
            payload = {"op": op, "guides": [guide_to_wire(guides[0])]}
        else:
            payload = {"op": op, "region": genome.text[:300]}
        with socket.create_connection((host, port), timeout=10) as raw:
            raw.sendall((json.dumps({**payload, **fields}) + "\n").encode("ascii"))
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["error"] == "bad_request", response
        assert service.stats()["requests"]["admitted"] == 0

    def test_overload_propagates_through_the_socket(self, genome, guides):
        # Deterministic overload: no batcher thread, queue depth 1,
        # prefilled — the socket query must be shed with the typed error.
        service = OffTargetService(
            background=False, max_queue_depth=1, chunk_length=1 << 12
        )
        service.add_genome("default", genome)
        parked = service.query_async(guides[:1], SearchBudget(mismatches=1))
        server = OffTargetServer(service)
        host, port = server.start()
        try:
            with ServiceClient(host, port, timeout_seconds=10) as client:
                with pytest.raises(ServiceOverloadedError):
                    client.query(guides[1:2], SearchBudget(mismatches=1))
                assert client.stats()["requests"]["shed"] == 1
            service.flush()  # the admitted request still completes
            assert parked.result(timeout=1).num_hits >= 0
        finally:
            server.stop()

    def test_guide_wire_round_trip(self, guides):
        from repro.service.server import guide_from_wire

        for guide in guides:
            assert guide_from_wire(guide_to_wire(guide)) == guide


def start_serve_subprocess(
    tmp_path: Path, genome, *extra_args: str, bootstrap: str | None = None
):
    """Launch ``python -m repro serve`` and parse the announce line.

    With *bootstrap*, the process runs ``python -c BOOTSTRAP serve ...``
    instead; the bootstrap patches what it needs, then hands
    ``sys.argv[1:]`` to ``repro.cli.main``.
    """
    fasta = tmp_path / "ref.fa"
    write_fasta([genome], fasta)
    entry = ["-m", "repro"] if bootstrap is None else ["-c", bootstrap]
    process = subprocess.Popen(
        [sys.executable, *entry, "serve", str(fasta), "--port", "0", *extra_args],
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
    if not announce or "serving session" not in announce[0]:
        process.kill()
        raise AssertionError(
            f"server never announced; stderr: {process.stderr.read()}"
        )
    port = int(announce[0].rstrip().rsplit(":", 1)[-1])
    return process, port


def child_pids(pid: int) -> list[int]:
    """Live children of *pid*, read from ``/proc``."""
    children = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and process_state(int(entry.name)) not in (None, "Z"):
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            if int(fields[1]) == pid:
                children.append(int(entry.name))
    return children


def process_state(pid: int) -> str | None:
    """The ``/proc`` state letter of *pid*, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


class TestServeSubprocess:
    def test_end_to_end_query_and_shutdown(self, tmp_path, genome, guides):
        budget = SearchBudget(mismatches=2)
        expected = OffTargetSearch(guides, budget).run(genome).hits
        process, port = start_serve_subprocess(tmp_path, genome)
        try:
            with ServiceClient("127.0.0.1", port, timeout_seconds=60) as client:
                assert client.ping()
                first = client.query(guides, budget)
                second = client.query(guides, budget)
                stats = client.stats()
                client.shutdown()
            assert first.hits == expected
            assert second.hits == expected
            # the repeat query was served from the compiled-guide cache
            assert stats["cache"]["hit_rate"] > 0
            assert stats["requests"]["completed"] == 2
            assert process.wait(timeout=SUBPROCESS_TIMEOUT) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_pooled_serve_forks_once_and_reaps_its_workers(
        self, tmp_path, genome, guides
    ):
        drain_deadline = 10.0
        process, port = start_serve_subprocess(
            tmp_path,
            genome,
            "--workers", "2",
            "--chunk-length", "1000",
            "--drain-deadline", str(drain_deadline),
        )
        try:
            with ServiceClient("127.0.0.1", port, timeout_seconds=60) as client:
                for index in range(5):
                    panel = guides[index % len(guides):]
                    budget = SearchBudget(mismatches=1 + index % 2)
                    expected = OffTargetSearch(panel, budget).run(genome).hits
                    assert client.query(panel, budget).hits == expected
                stats = client.stats()
                workers = child_pids(process.pid)
                client.shutdown()
            assert process.wait(timeout=drain_deadline) == 0
            assert stats["pool"] == {"workers": 2, "spawns": 1}
            assert len(workers) == 2
            assert [process_state(pid) for pid in workers] == [None, None]
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_cli_query_against_subprocess(self, tmp_path, genome, guides):
        budget = SearchBudget(mismatches=2)
        expected = OffTargetSearch(guides, budget).run(genome).hits
        table = tmp_path / "guides.txt"
        write_guides_table(table, guides)
        process, port = start_serve_subprocess(tmp_path, genome)
        try:
            completed = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "query",
                    str(table),
                    "--port",
                    str(port),
                    "--mismatches",
                    "2",
                    "--format",
                    "tsv",
                    "--stats-json",
                    str(tmp_path / "stats.json"),
                ],
                cwd=REPO,
                env={**os.environ, "PYTHONPATH": str(SRC)},
                capture_output=True,
                text=True,
                timeout=SUBPROCESS_TIMEOUT,
            )
            assert completed.returncode == 0, completed.stderr
            data_rows = [
                line
                for line in completed.stdout.splitlines()
                if line and not line.startswith("#")
            ]
            assert len(data_rows) == len(expected)
            payload = json.loads((tmp_path / "stats.json").read_text())
            assert payload["num_hits"] == len(expected)
            assert payload["service"]["requests"]["shed"] == 0
            assert "coalesced_batches" in payload["service"]
            assert "hit_rate" in payload["service"]["cache"]
            with ServiceClient("127.0.0.1", port, timeout_seconds=10) as client:
                client.shutdown()
            assert process.wait(timeout=SUBPROCESS_TIMEOUT) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


class TestCliExitCodes:
    def run_query_cli(self, table: Path, port: int, *extra: str):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "query",
                str(table),
                "--port",
                str(port),
                *extra,
            ],
            cwd=REPO,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=SUBPROCESS_TIMEOUT,
        )

    def test_overloaded_service_exits_3(self, tmp_path, genome, guides):
        table = tmp_path / "guides.txt"
        write_guides_table(table, guides[:1])
        service = OffTargetService(
            background=False, max_queue_depth=1, chunk_length=1 << 12
        )
        service.add_genome("default", genome)
        parked = service.query_async(guides[1:2], SearchBudget(mismatches=1))
        server = OffTargetServer(service)
        host, port = server.start()
        try:
            completed = self.run_query_cli(table, port, "--mismatches", "1")
            assert completed.returncode == EXIT_OVERLOADED, completed.stderr
            assert "queue at capacity" in completed.stderr.lower()
            service.flush()
            parked.result(timeout=1)
        finally:
            server.stop()

    def test_invalid_timeout_exits_2_before_admission(
        self, tmp_path, guides, live_server
    ):
        host, port, service = live_server
        table = tmp_path / "guides.txt"
        write_guides_table(table, guides[:1])
        for value in ("nan", "inf", "0", "-1"):
            completed = self.run_query_cli(table, port, f"--timeout={value}")
            assert completed.returncode == 2, completed.stderr
            assert "--timeout" in completed.stderr
        assert service.stats()["requests"]["admitted"] == 0

    def test_connection_refused_exits_2(self, tmp_path, guides):
        table = tmp_path / "guides.txt"
        write_guides_table(table, guides[:1])
        with socket.socket() as probe:  # grab, then release, a free port
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        completed = self.run_query_cli(table, port)
        assert completed.returncode == 2


class TestReconnectAfterRestart:
    def test_client_reregisters_and_resumes_without_duplicates(
        self, genome, guides
    ):
        # A backend crashes and is replaced on the same endpoint by a
        # cold process that knows nothing: the persistent client must
        # ride its retry path through the reconnect, re-register the
        # genome session itself, and the next query must execute
        # exactly once on the new process.
        budget = SearchBudget(mismatches=2)
        expected = OffTargetSearch(guides, budget).run(genome).hits
        service = OffTargetService(background=True, chunk_length=1 << 12)
        service.add_genome("default", genome)
        server = OffTargetServer(service)
        host, port = server.start()
        replacement = None
        client = ServiceClient(
            host,
            port,
            timeout_seconds=20,
            retry=RetryPolicy(seed=11, base_delay_seconds=0.01),
        )
        try:
            with client:
                before = client.query(guides, budget, request_id="before-restart")
                assert before.hits == expected
                server.die()
                # The replacement has no sessions at all — restarts
                # lose state, they don't inherit it.
                cold = OffTargetService(background=True, chunk_length=1 << 12)
                replacement = OffTargetServer(cold, port=port)
                # The dead server's acceptor poll (<= 0.2 s) can pin
                # the port briefly; retry the bind like a supervisor.
                deadline = time.monotonic() + 5
                while True:
                    try:
                        replacement.start()
                        break
                    except OSError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
                # The stale connection dies on first use; the retry
                # path reconnects, and the cold service answers with a
                # typed refusal for the missing session.
                with pytest.raises(ServiceError):
                    client.query(guides, budget, request_id="orphan-session")
                assert client.register_genome(
                    "default", [(genome.name, genome.text)]
                )
                after = client.query(guides, budget, request_id="after-restart")
            assert after.hits == expected
            counts = replacement.execution_counts()
            assert counts.get("after-restart") == 1
            assert all(count == 1 for count in counts.values()), counts
            assert client.metrics.counter("service.client.retries") >= 1
        finally:
            if replacement is not None:
                replacement.stop()
            server.stop()
