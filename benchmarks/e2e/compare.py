"""Compare two sets of e2e run records, one verdict per (metric, workload).

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are directories of untraced ``BENCH_*.json`` records
written by ``run.py --out``. Runs are paired in seed order, so sides
that used the same seeds pair seed by seed. For every end-to-end
metric of ``BENCHMARK.json`` and every workload both sides ran:

* ``unresolved`` -- either side's spread (interquartile range over
  median) exceeds the metric's bound, unless every change run reads
  better than every parent run (then ``better``);
* ``better`` -- at least 10 pairs, the change wins at least 9 of every
  10 (ties count for neither), and the medians differ by more than the
  parent's interquartile range;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``same`` -- otherwise.

Exits 1 when any verdict is ``regression``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict[str, Any]]]:
    """Untraced records by workload, in seed order."""
    by_workload: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for path in sorted(directory.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        if not record["trace"]:
            by_workload[record["workload"]].append(record)
    for records in by_workload.values():
        records.sort(key=lambda record: record["seed"])
    return by_workload


def spread(values: list[float]) -> float:
    """Interquartile range over median (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: dict[str, Any], parent: list[float], change: list[float],
            paired: list[tuple[float, float]]) -> dict[str, Any]:
    """The comparison row of one (metric, workload)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(sign * (c - p) < 0 for p, c in paired)
    worse_by = sign * (change_median - parent_median) / parent_median
    if max(spread(parent), spread(change)) > bound:
        everywhere = all(sign * (c - p) < 0 for c in change for p in parent)
        outcome = "better" if everywhere else "unresolved"
    elif (
        len(paired) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(paired)
        and abs(change_median - parent_median) > q3 - q1
    ):
        outcome = "better"
    elif worse_by > bound:
        outcome = "regression"
    else:
        outcome = "same"
    return {
        "metric": metric["name"],
        "parent_median": parent_median,
        "change_median": change_median,
        "worse_by": worse_by,
        "parent_spread": spread(parent),
        "change_spread": spread(change),
        "bound": bound,
        "wins": wins,
        "pairs": len(paired),
        "verdict": outcome,
    }


def compare(parent_dir: Path, change_dir: Path, benchmark: dict[str, Any]) -> list[dict[str, Any]]:
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in parent_runs or workload not in change_runs:
            continue
        # Both sides are in seed order: equal seed sets pair seed by seed.
        matched = list(zip(parent_runs[workload], change_runs[workload]))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in parent_runs[workload]]
            change = [r["metrics"][name]["value"] for r in change_runs[workload]]
            paired = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                      for p, c in matched]
            rows.append({"workload": workload, **verdict(metric, parent, change, paired)})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=Path(__file__).resolve().parents[2] / "BENCHMARK.json")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, json.loads(args.benchmark.read_text()))
    if not rows:
        print("error: no workload has untraced records on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<12} {'metric':<15} {'parent':>10} {'change':>10} {'worse':>7} "
          f"{'spread p/c':>11} {'bound':>5} {'wins':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<15} {row['parent_median']:>10.3f} "
              f"{row['change_median']:>10.3f} {100 * row['worse_by']:>6.1f}% "
              f"{row['parent_spread']:>5.3f}/{row['change_spread']:<5.3f} {row['bound']:>5.2f} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
