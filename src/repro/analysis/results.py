"""Run records and result sets.

A :class:`RunRecord` captures one (tool, workload) measurement —
modeled breakdown, functional hit count, measured host seconds — in a
form the speedup and table modules consume. :class:`ResultSet` indexes
records and supports the groupings the experiment harness prints.

The CLI's ``--stats-json`` output loads back into this form through
:func:`record_from_stats_json` / :func:`load_stats_json`, so per-shard
timings, retry counts, and report-rate metrics from production runs
feed the same analysis pipeline as the modeled experiments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Union

from ..errors import ReproError
from ..platforms.timing import TimingBreakdown


@dataclass(frozen=True)
class RunRecord:
    """One tool's result on one workload configuration."""

    tool: str
    workload: str
    genome_length: int
    num_guides: int
    mismatches: int
    rna_bulges: int
    dna_bulges: int
    modeled: TimingBreakdown
    num_hits: int
    measured_seconds: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def modeled_total(self) -> float:
        return self.modeled.total_seconds

    @property
    def modeled_kernel(self) -> float:
        return self.modeled.kernel_with_reports_seconds

    @property
    def budget_label(self) -> str:
        return f"{self.mismatches}mm/{self.rna_bulges}rb/{self.dna_bulges}db"


#: The ``mode`` values ``search --stats-json`` writes.
SEARCH_MODES = ("engine", "sharded-serial", "sharded-pooled")


def record_from_stats_json(payload: dict, *, workload: str = "cli") -> RunRecord:
    """Build a :class:`RunRecord` from a CLI ``--stats-json`` payload.

    The payload's search mode decides the measured time: sharded runs
    sum their per-sequence wall seconds (and surface retry/timeout
    totals in ``extra``), and engine runs carry their measured kernel
    seconds plus modeled totals. Any other mode raises
    :class:`ReproError` rather than load with no measured time.
    """
    if not isinstance(payload, dict) or "num_hits" not in payload:
        raise ReproError("stats payload is not a --stats-json dict")
    mode = payload.get("mode", "engine")
    if mode not in SEARCH_MODES:
        raise ReproError(
            f"unknown stats mode {mode!r}; expected one of {', '.join(SEARCH_MODES)}"
        )
    measured = 0.0
    extra: dict[str, Any] = {"mode": mode, "stats": payload}
    if mode.startswith("sharded"):
        runs = payload.get("parallel", [])
        measured = sum(run.get("wall_seconds", 0.0) for run in runs)
        extra["retries"] = sum(
            run.get("fault_tolerance", {}).get("retries", 0) for run in runs
        )
        extra["timeouts"] = sum(
            run.get("fault_tolerance", {}).get("timeouts", 0) for run in runs
        )
    else:
        measured = payload.get("measured_seconds", 0.0)
    extra["report_events_per_mbp"] = payload.get("report_events_per_mbp", 0.0)
    budget = payload.get("budget", {})
    modeled = TimingBreakdown(
        platform=payload.get("engine", "host"),
        setup_seconds=0.0,
        kernel_seconds=payload.get("modeled_seconds", 0.0),
    )
    return RunRecord(
        tool=payload.get("engine", "host"),
        workload=workload,
        genome_length=payload.get("genome_length", 0),
        num_guides=payload.get("num_guides", 1),
        mismatches=budget.get("mismatches", 0),
        rna_bulges=budget.get("rna_bulges", 0),
        dna_bulges=budget.get("dna_bulges", 0),
        modeled=modeled,
        num_hits=payload["num_hits"],
        measured_seconds=measured,
        extra=extra,
    )


def load_stats_json(path: Union[str, Path], *, workload: str = "cli") -> RunRecord:
    """Read one CLI ``--stats-json`` file into a :class:`RunRecord`."""
    with open(path, "r", encoding="ascii") as handle:
        return record_from_stats_json(json.load(handle), workload=workload)


class ResultSet:
    """An indexed collection of run records."""

    def __init__(self, records: Iterable[RunRecord] = ()) -> None:
        self._records: list[RunRecord] = list(records)

    def add(self, record: RunRecord) -> None:
        self._records.append(record)

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def tools(self) -> list[str]:
        """Distinct tool names, in insertion order."""
        return list(dict.fromkeys(record.tool for record in self._records))

    def workloads(self) -> list[str]:
        """Distinct workload names, in insertion order."""
        return list(dict.fromkeys(record.workload for record in self._records))

    def get(self, tool: str, workload: str | None = None) -> RunRecord:
        """The unique record for (tool, workload)."""
        matches = [
            record
            for record in self._records
            if record.tool == tool and (workload is None or record.workload == workload)
        ]
        if not matches:
            raise ReproError(f"no record for tool={tool!r} workload={workload!r}")
        if len(matches) > 1:
            raise ReproError(f"ambiguous record for tool={tool!r} workload={workload!r}")
        return matches[0]

    def for_workload(self, workload: str) -> "ResultSet":
        return ResultSet(r for r in self._records if r.workload == workload)

    def for_tool(self, tool: str) -> "ResultSet":
        return ResultSet(r for r in self._records if r.tool == tool)

    def agreement(self) -> bool:
        """True when every tool found the same hit count per workload.

        Hit-count equality is the cheap invariant the harness checks on
        every run; the test suite checks full hit-set equality.
        """
        for workload in self.workloads():
            counts = {record.num_hits for record in self.for_workload(workload)}
            if len(counts) > 1:
                return False
        return True
