"""Standard evaluation workloads and the cross-platform harness.

A :class:`StandardWorkload` pins everything one experiment row needs:
a deterministic synthetic reference for the functional runs, a modeled
reference length (human-genome scale by default) for the analytic
times, a guide set sampled from the reference, and a search budget.

:func:`evaluate_platforms` is the harness behind the headline tables:
it runs the functional search once, scales the observed report traffic
to the modeled genome length (valid because every platform model is
linear in genome length), and asks every engine and baseline model for
its timing breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from ..baselines.base import available_baselines, get_baseline
from ..core.compiler import CompiledLibrary, SearchBudget, compile_library
from ..core.parallel import ParallelSearch
from ..engines.base import available_engines, build_profile, get_engine
from ..genome.sequence import Sequence
from ..genome.synthetic import random_genome
from ..grna.library import GuideLibrary, sample_guides_from_genome
from ..platforms.reporting import ReportTraffic
from ..platforms.timing import (
    WorkloadProfile,
    cas_offinder_time,
    casot_time,
    expected_casot_candidates,
)
from ..platforms.spec import CasOffinderSpec, CasotSpec
from .results import ResultSet, RunRecord

#: human reference genome scale (hg19 ≈ 3.1 Gbp) used for modeled times.
HUMAN_GENOME_LENGTH = 3_100_000_000


@dataclass(frozen=True)
class StandardWorkload:
    """One fully-specified evaluation workload."""

    name: str = "default"
    modeled_genome_length: int = HUMAN_GENOME_LENGTH
    functional_genome_length: int = 2_000_000
    num_guides: int = 10
    budget: SearchBudget = SearchBudget(mismatches=3)
    seed: int = 20180224  # HPCA'18 dates, for determinism with a wink
    gc_content: float = 0.41
    #: process count for the functional hit enumeration; 1 = in-process,
    #: anything else shards across a pool (results are identical either
    #: way — the differential suite pins it).
    functional_workers: int = 1

    @cached_property
    def genome(self) -> Sequence:
        """The functional synthetic reference."""
        return random_genome(
            self.functional_genome_length,
            seed=self.seed,
            gc_content=self.gc_content,
            name=f"chrSyn_{self.name}",
        )

    @cached_property
    def library(self) -> GuideLibrary:
        """Guides sampled from the reference (each has an on-target hit)."""
        return sample_guides_from_genome(
            self.genome, self.num_guides, seed=self.seed + 1
        )

    @cached_property
    def compiled(self) -> CompiledLibrary:
        return compile_library(self.library, self.budget)

    @property
    def scale(self) -> float:
        """Modeled-over-functional genome length ratio."""
        return self.modeled_genome_length / self.functional_genome_length

    def with_budget(self, budget: SearchBudget) -> "StandardWorkload":
        return replace(self, name=f"{self.name}_b{budget.mismatches}{budget.rna_bulges}{budget.dna_bulges}", budget=budget)

    def with_guides(self, num_guides: int) -> "StandardWorkload":
        return replace(self, name=f"{self.name}_g{num_guides}", num_guides=num_guides)

    def with_workers(self, workers: int) -> "StandardWorkload":
        """Same workload, functional path sharded across *workers* processes."""
        return replace(self, functional_workers=workers)

    def modeled_profile(self) -> WorkloadProfile:
        """The workload profile at modeled (gigabase) scale."""
        hits = self.functional_hits
        functional = build_profile(self.genome, self.compiled, hits)
        scaled_traffic = ReportTraffic(
            events=int(functional.report_traffic.events * self.scale),
            cycles_with_reports=int(
                functional.report_traffic.cycles_with_reports * self.scale
            ),
        )
        return WorkloadProfile(
            genome_length=self.modeled_genome_length,
            num_guides=functional.num_guides,
            site_length=functional.site_length,
            total_stes=functional.total_stes,
            total_transitions=functional.total_transitions,
            expected_active=functional.expected_active,
            report_traffic=scaled_traffic,
            seed_candidates=expected_casot_candidates(
                self.modeled_genome_length,
                self.num_guides,
                len(self.library[0]),
                self.budget.mismatches,
            ),
        )

    @cached_property
    def functional_run(self) -> tuple[list, dict]:
        """The functional hit enumeration plus its observability stats.

        The stats are :class:`~repro.core.parallel.ParallelSearch`'s
        (per-shard timings, retries, recovery paths), the shape the
        CLI's ``--stats-json`` uses.
        """
        return ParallelSearch(
            self.library, self.budget, workers=self.functional_workers
        ).search_with_stats(self.genome)

    @property
    def functional_hits(self):
        """The deduplicated hit list on the functional reference."""
        return self.functional_run[0]

    @property
    def functional_stats(self) -> dict:
        """Observability stats of the functional enumeration."""
        return self.functional_run[1]


ENGINE_TOOLS = ("hyperscan", "infant2", "fpga", "ap")
BASELINE_TOOLS = ("cas-offinder", "casot")

#: The calibration workload: ~hg-scale, one experiment's worth of guides.
DEFAULT_WORKLOAD = StandardWorkload()


def evaluate_platforms(
    workload: StandardWorkload,
    *,
    tools: tuple[str, ...] = ENGINE_TOOLS + BASELINE_TOOLS,
    run_functional_baselines: bool = False,
) -> ResultSet:
    """Modeled times for every tool on *workload*, as a result set.

    Engines share one functional hit enumeration; baselines are run
    functionally only on request (CasOT's functional path is the slow
    one — that is the point of the paper). When not run, a baseline's
    ``num_hits`` is the automata hit count restricted to the budget the
    baseline supports, and its record is marked ``functional=False``.
    """
    profile = workload.modeled_profile()
    hits = workload.functional_hits
    results = ResultSet()

    def record(tool: str, modeled, num_hits: int, *, functional: bool, extra=None) -> None:
        results.add(
            RunRecord(
                tool=tool,
                workload=workload.name,
                genome_length=workload.modeled_genome_length,
                num_guides=workload.num_guides,
                mismatches=workload.budget.mismatches,
                rna_bulges=workload.budget.rna_bulges,
                dna_bulges=workload.budget.dna_bulges,
                modeled=modeled,
                num_hits=num_hits,
                extra={"functional": functional, **(extra or {})},
            )
        )

    functional_summary = {
        "workers": workload.functional_workers,
        "wall_seconds": workload.functional_stats.get("wall_seconds", 0.0),
        "retries": workload.functional_stats.get("fault_tolerance", {}).get(
            "retries", 0
        ),
    }
    for tool in tools:
        if tool in available_engines():
            engine = get_engine(tool)
            record(
                tool,
                engine.model_time(profile),
                len(hits),
                functional=True,
                extra={
                    **engine.platform_stats(profile, workload.compiled),
                    "functional_run": functional_summary,
                },
            )
        elif tool == "cas-offinder":
            if run_functional_baselines and not workload.budget.has_bulges:
                result = get_baseline(tool).search(
                    workload.genome, workload.library, workload.budget
                )
                num_hits, functional = result.num_hits, True
            else:
                num_hits, functional = len(hits), False
            record(tool, cas_offinder_time(profile, CasOffinderSpec()), num_hits, functional=functional)
        elif tool == "casot":
            if run_functional_baselines:
                result = get_baseline(tool).search(
                    workload.genome, workload.library, workload.budget
                )
                num_hits, functional = result.num_hits, True
            else:
                num_hits, functional = len(hits), False
            record(tool, casot_time(profile, CasotSpec()), num_hits, functional=functional)
        else:
            raise ValueError(f"unknown tool {tool!r}")
    return results
