"""The public off-target search API.

Typical use::

    from repro import Guide, GuideLibrary, OffTargetSearch, SearchBudget
    from repro.genome import read_fasta

    genome = read_fasta("reference.fa")[0].sequence
    guides = GuideLibrary.from_guides([
        Guide("EMX1", "GAGTCCGAGCAGAAGAAGAA"),
    ])
    search = OffTargetSearch(guides, SearchBudget(mismatches=3))
    report = search.run(genome)                   # default engine
    report = search.run(genome, engine="fpga")    # pick a platform model
    for hit in report.hits:
        print(hit.to_bed_line())
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable, Union

from ..errors import EngineError
from ..genome.sequence import Sequence
from ..grna.guide import Guide
from ..grna.hit import OffTargetHit
from ..grna.library import GuideLibrary
from .compiler import CompiledLibrary, SearchBudget, compile_library

if TYPE_CHECKING:  # imported lazily at runtime to keep startup light
    from ..engines.base import EngineResult
    from .parallel import ParallelSearch

#: Engine used when the caller does not pick one.
DEFAULT_ENGINE = "hyperscan"


@dataclass(frozen=True)
class SearchReport:
    """Everything one search run produced."""

    engine: str
    budget: SearchBudget
    hits: tuple[OffTargetHit, ...]
    modeled_seconds: float
    modeled_kernel_seconds: float
    measured_seconds: float
    genome_length: int
    num_guides: int
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def num_hits(self) -> int:
        return len(self.hits)

    def hits_for(self, guide_name: str) -> list[OffTargetHit]:
        """Hits of one guide, sorted by position."""
        return sorted(hit for hit in self.hits if hit.guide_name == guide_name)

    def hits_within(self, max_edits: int) -> list[OffTargetHit]:
        """Hits with at most *max_edits* total edits."""
        return sorted(hit for hit in self.hits if hit.edits <= max_edits)

    def summary(self) -> str:
        """One-paragraph human summary."""
        return (
            f"{self.num_hits} candidate off-target sites for {self.num_guides} "
            f"guide(s) over {self.genome_length:,} bp "
            f"[engine={self.engine}, budget={self.budget.mismatches}mm/"
            f"{self.budget.rna_bulges}rb/{self.budget.dna_bulges}db; "
            f"modeled {self.modeled_seconds:.3g}s, measured {self.measured_seconds:.3g}s]"
        )


class OffTargetSearch:
    """Compile a guide library once, search any number of references.

    ``workers`` selects the functional execution path for engine runs:
    ``1`` (the default) enumerates hits with the single-threaded
    vectorised kernel; any other value shards the genome into
    ``chunk_length`` chunks (and the guide set, when there are fewer
    chunks than workers) across a process pool
    (:class:`repro.core.parallel.ParallelSearch`) with results
    guaranteed identical to the serial path — including across worker
    death and corrupt results, which the executor resubmits at once
    and, as a last resort, re-runs in-process. Both paths run the
    bit-parallel kernel (:mod:`repro.core.bitparallel`). Baselines
    model competing tools' own algorithms and always run serially.

    Every :meth:`run` report carries the pipeline's observability
    snapshot under ``stats["pipeline"]`` (compile/search/sort spans)
    next to the engine's own ``stats["obs"]``.
    """

    def __init__(
        self,
        guides: Union[GuideLibrary, Iterable[Guide]],
        budget: SearchBudget | None = None,
        *,
        workers: int = 1,
        chunk_length: int = 1 << 20,
    ) -> None:
        if not isinstance(guides, GuideLibrary):
            guides = GuideLibrary.from_guides(list(guides))
        self._library = guides
        self._budget = budget or SearchBudget()
        if not isinstance(workers, int) or workers < 1:
            raise EngineError(f"workers must be a positive integer, got {workers!r}")
        self._workers = workers
        self._chunk_length = chunk_length

    @property
    def library(self) -> GuideLibrary:
        return self._library

    @property
    def budget(self) -> SearchBudget:
        return self._budget

    @property
    def workers(self) -> int:
        return self._workers

    @cached_property
    def compiled(self) -> CompiledLibrary:
        """The compiled automata network (built lazily, cached)."""
        return compile_library(self._library, self._budget)

    @cached_property
    def parallel(self) -> ParallelSearch:
        """The sharded executor behind ``workers != 1`` runs (lazy)."""
        from .parallel import ParallelSearch

        return ParallelSearch(
            self._library,
            self._budget,
            workers=self._workers,
            chunk_length=self._chunk_length,
        )

    def run(
        self,
        genome: Union[Sequence, Iterable[Sequence]],
        *,
        engine: str = DEFAULT_ENGINE,
    ) -> SearchReport:
        """Search one reference sequence (or several) with *engine*.

        Engines are the paper's platforms (``cpu-nfa``, ``hyperscan``,
        ``infant2``, ``fpga``, ``ap``); baselines (``cas-offinder``,
        ``casot``) are accepted too, so the whole evaluation runs
        through one entry point.
        """
        from ..obs import Metrics

        sequences = [genome] if isinstance(genome, Sequence) else list(genome)
        if not sequences:
            raise EngineError("no sequences to search")
        metrics = Metrics()
        with metrics.span("resolve", engine=engine):
            runner = _resolve(engine, parallel=self._workers != 1)
        hits: list[OffTargetHit] = []
        modeled_total = 0.0
        modeled_kernel = 0.0
        measured = 0.0
        stats: dict[str, Any] = {}
        total_length = 0
        for sequence in sequences:
            with metrics.span("search", sequence=sequence.name):
                result = runner(sequence, self)
            hits.extend(result.hits)
            modeled_total += result.modeled.total_seconds
            modeled_kernel += result.modeled.kernel_with_reports_seconds
            measured += result.measured_seconds
            stats = result.stats
            total_length += len(sequence)
            metrics.incr("search.sequences")
            metrics.incr("search.positions", len(sequence))
            metrics.incr("search.hits", len(result.hits))
        with metrics.span("sort"):
            ordered = tuple(sorted(hits))
        return SearchReport(
            engine=engine,
            budget=self._budget,
            hits=ordered,
            modeled_seconds=modeled_total,
            modeled_kernel_seconds=modeled_kernel,
            measured_seconds=measured,
            genome_length=total_length,
            num_guides=len(self._library),
            stats={**stats, "pipeline": metrics.snapshot()},
        )


def _resolve(
    name: str, *, parallel: bool = False
) -> Callable[[Sequence, "OffTargetSearch"], "EngineResult"]:
    """Resolve an engine or baseline name to a uniform callable.

    Imported lazily to keep :mod:`repro.core` free of import cycles
    with :mod:`repro.engines`. With ``parallel=True`` an engine's hit
    enumeration runs through the sharded process-pool executor (the
    engine still contributes its modeled timing and platform stats,
    which do not depend on how the functional hits were enumerated).
    """
    from ..baselines.base import available_baselines, get_baseline
    from ..engines.base import available_engines, build_profile, get_engine

    if name in available_engines():
        engine = get_engine(name)

        if parallel:
            import time

            from ..engines.base import EngineResult

            def run_engine(sequence: Sequence, search: OffTargetSearch) -> EngineResult:
                started = time.perf_counter()
                hits, shard_stats = search.parallel.search_with_stats(sequence)
                measured = time.perf_counter() - started
                profile = build_profile(sequence, search.compiled, hits)
                return EngineResult(
                    engine=engine.name,
                    hits=tuple(hits),
                    modeled=engine.model_time(profile),
                    measured_seconds=measured,
                    stats={
                        **engine.platform_stats(profile, search.compiled),
                        "parallel": shard_stats,
                    },
                )

            return run_engine

        def run_engine(sequence: Sequence, search: OffTargetSearch) -> "EngineResult":
            return engine.search(sequence, search.compiled)

        return run_engine
    if name in available_baselines():
        baseline = get_baseline(name)

        def run_baseline(sequence: Sequence, search: OffTargetSearch) -> "EngineResult":
            return baseline.search(sequence, search.library, search.budget)

        return run_baseline
    raise EngineError(
        f"unknown engine {name!r}; engines: {available_engines()}, "
        f"baselines: {available_baselines()}"
    )
