"""End-to-end serving benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload interactive --seed 1 \\
        [--seconds 20] [--trace 0|1] [--out DIR]

The run generates every input from ``--seed`` (``workloads.py``),
launches the shipped CLI (``python -m repro serve`` and, for ``routed``,
``route``) as subprocesses, drives the workload from this process with
at most two sender threads and connections, checks every response
against a reference computed at set-up, and prints each metric by name
with its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first
repeats the untraced measurement, then relaunches the same server
command lines through ``node.py`` with every layer wrapped in spans, and
reports per-layer self time (``tracing.py``) plus the tracing overhead.
``--out DIR`` also writes the full run record to
``DIR/BENCH_<workload>_s<seed>[_trace].json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
NODE = HERE / "node.py"

#: Traffic before the measured window, excluded from every metric.
WARMUP_SECONDS = 2.0
#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3


@dataclass
class Sample:
    """One request as the generator saw it (monotonic nanoseconds)."""

    rid: str
    item: int
    due: int
    start: int
    end: int
    error: str | None
    hits: int = 0
    candidates: int = 0


@dataclass
class Phase:
    """One launch of the server stack and the traffic it served."""

    setup_s: list[float]
    warm: list[Sample]
    measured: list[Sample]
    window_start: int
    counters: dict[str, Any]
    rss_mb: float
    trace_dir: Path | None = None


class Stack:
    """The ``serve`` processes of one phase, behind a ``route`` when routed."""

    def __init__(self, workload: Any, fasta: Path, workdir: Path,
                 env: dict[str, str], trace_dir: Path | None) -> None:
        self._workload = workload
        self._fasta = fasta
        self._workdir = workdir
        self._env = env
        self._trace_dir = trace_dir
        self._procs: list[subprocess.Popen] = []
        self._logs: list[Any] = []
        self.ports: list[int] = []

    @property
    def routed(self) -> bool:
        return self._workload.backends > 1

    @property
    def entry_port(self) -> int:
        return self.ports[-1]

    @property
    def backend_ports(self) -> list[int]:
        return self.ports[: self._workload.backends]

    def start(self) -> float:
        """Launch every process; seconds until a ping through the entry works."""
        from repro.service import ServiceClient

        began = time.monotonic()
        try:
            serve = ["serve", str(self._fasta), *self._workload.serve_args]
            for index in range(self._workload.backends):
                self._spawn(serve, f"serve{index}")
            self.ports = [self._announced(proc) for proc in self._procs]
            if self.routed:
                backends = [f"127.0.0.1:{port}" for port in self.ports]
                self._spawn(["route", "--backends", *backends], "route")
                self.ports.append(self._announced(self._procs[-1]))
            with ServiceClient(port=self.entry_port, timeout_seconds=30) as client:
                client.ping()
        except BaseException:
            self.stop()
            raise
        return time.monotonic() - began

    def _spawn(self, args: list[str], label: str) -> None:
        if self._trace_dir is None:
            prefix = [sys.executable, "-m", "repro"]
        else:
            prefix = [sys.executable, str(NODE), str(self._trace_dir)]
        log = open(self._workdir / f"{label}.log", "ab")
        self._logs.append(log)
        self._procs.append(
            subprocess.Popen(
                prefix + args,
                stdout=subprocess.PIPE,
                stderr=log,
                env=self._env,
                cwd=self._workdir,
            )
        )

    @staticmethod
    def _announced(proc: subprocess.Popen, timeout: float = 60.0) -> int:
        """The port from a server's ``# ... on HOST:PORT`` announce line."""
        assert proc.stdout is not None
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"{proc.args} did not announce within {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(f"{proc.args} exited with {proc.wait()}")
                buffer += chunk
        return int(buffer.split(b"\n", 1)[0].decode().rsplit(":", 1)[1])

    def counters(self) -> dict[str, Any]:
        """The ``stats`` op of every backend (and the router)."""
        from repro.service import ServiceClient

        snapshot: dict[str, Any] = {"backends": [], "router": None}
        for port in self.backend_ports:
            with ServiceClient(port=port, timeout_seconds=30) as client:
                snapshot["backends"].append(client.stats())
        if self.routed:
            with ServiceClient(port=self.entry_port, timeout_seconds=30) as client:
                snapshot["router"] = client.stats()
        return snapshot

    def rss_mb(self) -> float:
        """Sum of the processes' peak resident set (``VmHWM``)."""
        total_kb = 0
        for proc in self._procs:
            with open(f"/proc/{proc.pid}/status", encoding="ascii") as handle:
                line = next(row for row in handle if row.startswith("VmHWM:"))
            total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """Shut every process down (router first) and wait for each to end."""
        from repro.errors import ReproError
        from repro.service import ServiceClient

        for proc, port in reversed(list(itertools.zip_longest(self._procs, self.ports))):
            if proc.poll() is not None:
                continue
            try:
                if port is None:
                    raise ReproError("never announced")
                with ServiceClient(port=port, timeout_seconds=10) as client:
                    client.shutdown()
            except ReproError:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            assert proc.stdout is not None
            proc.stdout.close()
        for log in self._logs:
            log.close()
        self._procs, self._logs = [], []


# -- traffic ----------------------------------------------------------------------


def _issue(workload: Any, client: Any, rid: str, item: int, due: int) -> Sample:
    import workloads
    from repro.errors import ReproError

    start = time.monotonic_ns()
    hits = candidates = 0
    try:
        if workload.op == "query":
            response = client.query(
                workload.items[item], workload.budget, request_id=rid
            )
            hits = response.num_hits
        else:
            region = workload.items[item]
            response = client.design(
                region.text,
                region_name=region.name,
                budget=workload.budget,
                request_id=rid,
            )
            candidates = int(response.get("candidates", 0))
            hits = sum(len(found) for found in response.get("hits", {}).values())
    except ReproError as error:
        return Sample(rid, item, due, start, time.monotonic_ns(),
                      f"{type(error).__name__}: {error}")
    end = time.monotonic_ns()
    return Sample(rid, item, due, start, end,
                  workloads.check(workload, item, response), hits, candidates)


def drive(workload: Any, clients: list[Any], seconds: float, stream: int,
          stamp: bool) -> tuple[list[Sample], int]:
    """Run one traffic phase; returns its samples and its start time.

    Open loop: a seeded Poisson schedule (a fixed count of arrivals,
    uniform over the window), each request timed from its due time, so
    a backlog in the generator counts. Closed loop: every connection
    sends its next request when the previous one returns, until the
    window ends. With *stamp* every request carries an id, which the
    trace join needs. Only the traced phase stamps: the server keeps
    each stamped response (up to 1,024) for idempotent replay, so its
    heap would grow over the measured window. A plain ``ServiceClient``
    sends no id either.
    """
    import numpy as np

    traffic = workload.traffic
    begin = time.monotonic_ns() + 10_000_000
    end = begin + int(seconds * 1e9)
    if traffic.loop == "open":
        count = round(traffic.rate_per_s * seconds)
        rng = np.random.default_rng([workload.seed, 11, stream])
        dues = begin + np.sort(rng.uniform(0, seconds * 1e9, count)).astype(np.int64)
    else:
        count = 1 << 17
        dues = None
    items = workload.request_items(count, stream)
    next_index = itertools.count()
    samples: list[Sample] = []

    def sender(client: Any) -> None:
        time.sleep(max(0.0, (begin - time.monotonic_ns()) / 1e9))
        while True:
            index = next(next_index)
            if dues is not None:
                if index >= count:
                    return
                due = int(dues[index])
                time.sleep(max(0.0, (due - time.monotonic_ns()) / 1e9))
            else:
                due = time.monotonic_ns()
                if due >= end or index >= count:
                    return
            rid = f"{workload.name}-{workload.seed}-{stream}-{index}" if stamp else ""
            samples.append(_issue(workload, client, rid, int(items[index]), due))

    threads = [threading.Thread(target=sender, args=(client,)) for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples, begin


def _deltas(before: dict[str, Any], after: dict[str, Any]) -> dict[str, Any]:
    """Counter movement over the measured window."""

    def moved(*path: str) -> list[int]:
        values = []
        for old, new in zip(before["backends"], after["backends"]):
            for key in path:
                old, new = old[key], new[key]
            values.append(int(new) - int(old))
        return values

    def routed(key: str) -> int:
        if after["router"] is None:
            return 0
        return int(after["router"][key]) - int(before["router"][key])

    return {
        "completed_per_backend": moved("requests", "completed"),
        "batches": sum(moved("batches")),
        "batch_requests": sum(moved("batch_requests")),
        "genome_passes": sum(moved("genome_passes")),
        "shed": sum(moved("requests", "shed")),
        "cache_lookups": sum(moved("cache", "lookups")),
        "cache_hits": sum(moved("cache", "hits")),
        "cache_misses": sum(moved("cache", "misses")),
        "failovers": routed("failovers"),
        "warmup_forwards": routed("warmup_forwards"),
    }


def run_phase(workload: Any, fasta: Path, workdir: Path, env: dict[str, str],
              seconds: float, setups: int, trace_dir: Path | None) -> Phase:
    """Set the stack up *setups* times, keep the last, warm it, measure it."""
    from repro.service import ServiceClient

    setup_s: list[float] = []
    for attempt in range(setups):
        stack = Stack(workload, fasta, workdir, env, trace_dir)
        setup_s.append(stack.start())
        if attempt < setups - 1:
            stack.stop()
    clients = [
        ServiceClient(port=stack.entry_port, timeout_seconds=60)
        for _ in range(workload.traffic.connections)
    ]
    try:
        stamp = trace_dir is not None
        warm, _ = drive(workload, clients, WARMUP_SECONDS, stream=0, stamp=stamp)
        before = stack.counters()
        measured, window_start = drive(workload, clients, seconds, stream=1, stamp=stamp)
        after = stack.counters()
        rss = stack.rss_mb()
    finally:
        for client in clients:
            client.close()
        stack.stop()
    return Phase(setup_s, warm, measured, window_start, _deltas(before, after), rss, trace_dir)


# -- metrics ------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else float("nan")


def _latencies(phase: Phase) -> list[float]:
    return [(s.end - s.due) / 1e6 for s in phase.measured if s.error is None]


def end_to_end(phase: Phase) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics of an untraced phase, plus record-only detail."""
    latency = _latencies(phase)
    last = max(s.end for s in phase.measured)
    lateness = [(s.start - s.due) / 1e6 for s in phase.measured]
    metrics = {
        "setup_s": statistics.median(phase.setup_s),
        "latency_p50_ms": _percentile(latency, 50),
        "latency_p90_ms": _percentile(latency, 90),
        "throughput_rps": len(phase.measured) / ((last - phase.window_start) / 1e9),
        "rss_mb": phase.rss_mb,
    }
    detail = {
        "latency_ms": {
            "p50": metrics["latency_p50_ms"],
            "p90": metrics["latency_p90_ms"],
            "p99": _percentile(latency, 99),
            "mean": statistics.fmean(latency) if latency else float("nan"),
            "samples": len(latency),
        },
        "generator": {
            "lateness_p50_ms": _percentile(lateness, 50),
            "lateness_p99_ms": _percentile(lateness, 99),
        },
        "setup_s": phase.setup_s,
        "error_rate": sum(s.error is not None for s in phase.measured) / len(phase.measured),
        "counters": phase.counters,
    }
    return metrics, detail


def per_layer(workload: Any, phase: Phase, untraced_p50: float) -> tuple[dict[str, float], dict[str, Any]]:
    """The per-layer metrics of a traced phase, plus the self-time table."""
    import tracing

    spans = tracing.load(phase.trace_dir)
    trace = tracing.Trace(spans, routed=workload.backends > 1)
    ok = [s for s in phase.measured if s.error is None]
    rows: list[tuple[dict[str, int], int]] = []
    for sample in ok:
        totals = tracing.attribute(trace, sample.rid, sample.due, sample.start, sample.end)
        if totals is not None:
            rows.append((totals, sample.end - sample.due))
    joined = len(rows)
    mean_latency_ms = sum(latency for _, latency in rows) / joined / 1e6

    def mean_ms(*layers: str) -> float:
        return sum(t.get(layer, 0) for t, _ in rows for layer in layers) / joined / 1e6

    layers = sorted({layer for totals, _ in rows for layer in totals})
    table = {
        layer: {
            "mean_ms": mean_ms(layer),
            "p50_ms": _percentile([t.get(layer, 0) / 1e6 for t, _ in rows], 50),
            "share": mean_ms(layer) / mean_latency_ms,
        }
        for layer in layers
    }
    in_window = [s for s in spans if s["start"] >= phase.window_start]
    scans = [s for s in in_window if s["name"] == "panel.scan"]
    searches = [s for s in in_window if s["name"] == "parallel.search"]
    loads = [s for s in spans if s["name"] == "sessions.load"]
    counters = phase.counters
    completed = counters["completed_per_backend"]
    parallel_layers = ("core.parallel.overhead", "core.parallel.pack", "core.parallel.merge",
                       "core.parallel.shard", "core.bitparallel.panel_compile",
                       "core.bitparallel.kernel")
    design_layers = ("design.pipeline", "design.enumerate", "design.vet", "design.score")
    traced_p50 = _percentile(_latencies(phase), 50)
    metrics = {
        "service.client.codec_ms": mean_ms("service.client.codec"),
        "service.server.wire_ms": mean_ms("service.server.wire"),
        "cluster.router.hop_pct": 100 * mean_ms("cluster.router.hop") / mean_latency_ms,
        "cluster.router.balance": max(completed) / sum(completed),
        "cluster.router.failovers": counters["failovers"],
        "service.scheduler.queue_wait_ms": mean_ms("service.scheduler.queue_wait"),
        "service.scheduler.queue_wait_p90_ms": _percentile(
            [t.get("service.scheduler.queue_wait", 0) / 1e6 for t, _ in rows], 90
        ),
        "service.scheduler.batch_ms": mean_ms("service.scheduler.batch"),
        "service.scheduler.plan_ms": mean_ms("service.scheduler.plan"),
        "service.scheduler.requests_per_batch": counters["batch_requests"] / counters["batches"],
        "service.scheduler.passes_per_request": counters["genome_passes"] / sum(completed),
        "service.scheduler.shed": counters["shed"],
        "service.cache.hit_rate": counters["cache_hits"] / counters["cache_lookups"],
        "service.cache.lookup_ms": mean_ms("service.cache.hit", "service.cache.miss"),
        "core.parallel.search_ms": mean_ms(*parallel_layers),
        "core.parallel.pack_ms": mean_ms("core.parallel.pack"),
        "core.parallel.shard_ms": mean_ms("core.parallel.shard"),
        "core.parallel.merge_ms": mean_ms("core.parallel.merge"),
        "core.parallel.overhead_ms": mean_ms("core.parallel.overhead"),
        "core.parallel.pooled_fraction": sum(bool(s.get("pooled")) for s in searches) / len(searches),
        "core.bitparallel.panel_compile_ms": mean_ms("core.bitparallel.panel_compile"),
        "core.bitparallel.kernel_ms": mean_ms("core.bitparallel.kernel"),
        "core.bitparallel.msym_per_s": sum(s["symbols"] for s in scans)
        / (sum(s["end"] - s["start"] for s in scans) / 1e9) / 1e6,
        "core.bitparallel.hits_per_request": statistics.fmean(s.hits for s in ok),
        "design.pipeline_pct": 100 * mean_ms(*design_layers) / mean_latency_ms,
        "design.candidates_per_request": statistics.fmean(s.candidates for s in ok),
        "service.sessions.load_s": max(s["end"] - s["start"] for s in loads) / 1e9,
        "trace.coverage": 1 - mean_ms(tracing.UNATTRIBUTED) / mean_latency_ms,
        "trace.overhead_pct": 100 * (traced_p50 - untraced_p50) / untraced_p50,
        "trace.joined_fraction": joined / len(ok),
    }
    detail = {
        "layers": table,
        "latency_mean_ms": mean_latency_ms,
        "latency_p50_ms": traced_p50,
        "untraced_latency_p50_ms": untraced_p50,
        "service.cache.miss_ms": mean_ms("service.cache.miss"),
        "cluster.router.hop_ms": mean_ms("cluster.router.hop"),
        "design_ms": {layer: mean_ms(layer) for layer in design_layers},
        "counters": counters,
    }
    return metrics, detail


# -- the run ----------------------------------------------------------------------------


def _git() -> dict[str, Any]:
    """The checkout's commit and dirty flag (null outside a git work tree)."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    return {"sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def _host() -> dict[str, Any]:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(f"# {title}")
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>12}  {unit}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, help="also write the run record here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    workload = workloads.build(args.workload, args.seed)
    # Self-test of the response check: a wrong answer must not pass.
    item, wrong = workloads.tampered(workload)
    if workloads.check(workload, item, wrong) is None:
        print("error: the response check accepted a tampered response", file=sys.stderr)
        return 1

    workdir = ROOT / ".e2e_bench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        fasta = workdir / "reference.fa"
        from repro import write_fasta

        write_fasta(list(workload.genome), fasta)
        untraced = run_phase(workload, fasta, workdir, env, args.seconds,
                             1 if args.trace else SETUPS, None)
        phases = [untraced]
        untraced_metrics, untraced_detail = end_to_end(untraced)
        metrics, detail = untraced_metrics, untraced_detail
        if args.trace:
            import tracing

            trace_dir = workdir / "trace"
            trace_dir.mkdir()
            client_tracer = tracing.Tracer(trace_dir)
            tracing.install_client(client_tracer)
            traced = run_phase(workload, fasta, workdir, env, args.seconds, 1, trace_dir)
            client_tracer.dump()
            phases.append(traced)
            metrics, detail = per_layer(workload, traced, untraced_metrics["latency_p50_ms"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there

    samples = [s for phase in phases for s in phase.warm + phase.measured]
    errors = workload.truth_errors + sorted({s.error for s in samples if s.error is not None})
    failed = sum(s.error is not None for s in samples)
    correct = failed == 0 and not workload.truth_errors
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    shown = {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()}

    measured = phases[-1].measured
    _print_table(
        f"{args.workload} seed {args.seed}: {len(measured)} requests in "
        f"{args.seconds:g} s, {failed} of {len(samples)} failed",
        [(name, f"{m['value']:.4f}", m["unit"]) for name, m in shown.items()],
    )
    if args.trace:
        _print_table(
            "self time per request by layer (mean ms, p50 ms, share of latency)",
            [(layer, f"{row['mean_ms']:.3f} {row['p50_ms']:9.3f}", f"{100 * row['share']:.1f}%")
             for layer, row in sorted(detail["layers"].items(), key=lambda kv: -kv[1]["mean_ms"])],
        )
    for error in errors[:5]:
        print(f"# error: {error}")
    if args.out:
        record = {
            "schema": 1,
            "workload": args.workload,
            "why": workloads.WHY[args.workload],
            "seed": args.seed,
            "trace": bool(args.trace),
            "duration_s": args.seconds,
            "warmup_s": WARMUP_SECONDS,
            "git": _git(),
            "host": _host(),
            "traffic": vars(workload.traffic),
            "samples": {
                "attempted": len(samples),
                "failed": failed,
                "measured": len(measured),
                "warmup": len(phases[-1].warm),
            },
            "correct": correct,
            "errors": errors[:20],
            "metrics": shown,
            **detail,
        }
        if args.trace:
            record.update({key: untraced_detail[key] for key in ("latency_ms", "generator")})
            record["end_to_end"] = {
                name: {"value": value, "unit": unit_of[name]}
                for name, value in untraced_metrics.items()
            }
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = "_trace" if args.trace else ""
        path = args.out / f"BENCH_{args.workload}_s{args.seed}{suffix}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
