"""Smoke test of the e2e benchmark: every workload, short and traced.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` from the
repository root. It is not part of the tier-1 suite (``testpaths`` is
``tests``): the four traced runs take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORD_KEYS = {
    "schema", "workload", "why", "seed", "trace", "duration_s", "warmup_s", "git",
    "host", "traffic", "samples", "correct", "errors", "metrics", "end_to_end",
    "layers", "latency_ms", "generator",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory: pytest.TempPathFactory) -> dict[str, tuple[dict, dict]]:
    """(last stdout line, record) of a 2-second traced run of each workload."""
    out = tmp_path_factory.mktemp("e2e")
    began = time.monotonic()
    results = {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "2", "--trace", "--out", str(out)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads((out / f"BENCH_{workload}_s1_trace.json").read_text())
        results[workload] = (line, record)
    assert time.monotonic() - began < 90
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_record_schema(runs: dict, workload: str) -> None:
    line, record = runs[workload]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert RECORD_KEYS <= set(record)
    assert record["host"]["nproc"] >= 1
    assert record["samples"]["measured"] >= 1
    assert {"lateness_p50_ms", "lateness_p99_ms"} == set(record["generator"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metric_names_match_benchmark(runs: dict, workload: str) -> None:
    line, record = runs[workload]
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(record["end_to_end"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == units


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_errors(runs: dict, workload: str) -> None:
    line, record = runs[workload]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert record["errors"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_trace_covers_latency(runs: dict, workload: str) -> None:
    line, _ = runs[workload]
    assert 0.9 <= line["metrics"]["trace.coverage"]["value"] <= 1.1
    assert line["metrics"]["trace.joined_fraction"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tampered_response_counts_as_failure(workload: str) -> None:
    built = workloads.build(workload, 1)
    item, wrong = workloads.tampered(built)

    class Replay:
        def query(self, *args: object, **kwargs: object) -> object:
            return wrong

        design = query

    sample = run._issue(built, Replay(), "tampered", item, due=0)
    phase = run.Phase([0.1], [], [sample], 0, {}, 1.0)
    assert sample.error is not None
    assert run.end_to_end(phase)[1]["error_rate"] == 1.0
