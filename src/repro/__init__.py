"""repro — automata-based CRISPR/Cas9 gRNA off-target search.

Reproduction of "Searching for Potential gRNA Off-Target Sites for
CRISPR/Cas9 Using Automata Processing Across Different Platforms"
(Bo, Dang, Sadredini, Skadron — HPCA 2018).

The package compiles guide RNAs into mismatch/bulge-counting automata,
runs them over reference genomes through functional models of four
platforms (CPU/HyperScan, GPU/iNFAnt2, FPGA, Micron AP), and compares
against reimplementations of Cas-OFFinder and CasOT.

Quickstart::

    import repro

    genome = repro.random_genome(200_000, seed=1)
    guides = repro.sample_guides_from_genome(genome, 4, seed=2)
    report = repro.OffTargetSearch(guides, repro.SearchBudget(mismatches=3)).run(genome)
    print(report.summary())
"""

from .core.search import OffTargetSearch, SearchBudget, SearchReport
from .core.bitparallel import BitParallelPanel
from .core.compiler import compile_guide, compile_library, CompiledGuide, CompiledLibrary
from .core.parallel import FaultPlan, FaultSpec, ParallelSearch
from .core.reference import NaiveSearcher
from .obs import Metrics
from .genome.sequence import Sequence
from .genome.fasta import read_fasta, write_fasta
from .genome.synthetic import random_genome, SyntheticGenomeBuilder, plant_sites
from .grna.guide import Guide
from .grna.library import GuideLibrary, parse_guide_table, sample_guides_from_genome
from .grna.pam import Pam, get_pam, PAM_CATALOG
from .grna.hit import OffTargetHit, render_alignment
from .service import OffTargetService, ServiceClient, ServiceResult
from .cluster import BackendSpec, ClusterRouter, RouterConfig
from .design import (
    Candidate,
    CandidateScore,
    DesignReport,
    ScoreWeights,
    enumerate_candidates,
    render_design_tsv,
    run_design,
)
from .errors import DesignError, ReproError, ServiceError, ServiceOverloadedError

__version__ = "1.0.0"

__all__ = [
    "OffTargetSearch",
    "SearchBudget",
    "SearchReport",
    "BitParallelPanel",
    "compile_guide",
    "compile_library",
    "CompiledGuide",
    "CompiledLibrary",
    "FaultPlan",
    "FaultSpec",
    "Metrics",
    "NaiveSearcher",
    "ParallelSearch",
    "Sequence",
    "read_fasta",
    "write_fasta",
    "random_genome",
    "SyntheticGenomeBuilder",
    "plant_sites",
    "Guide",
    "GuideLibrary",
    "parse_guide_table",
    "sample_guides_from_genome",
    "Pam",
    "get_pam",
    "PAM_CATALOG",
    "OffTargetHit",
    "render_alignment",
    "OffTargetService",
    "ServiceClient",
    "ServiceResult",
    "BackendSpec",
    "ClusterRouter",
    "RouterConfig",
    "Candidate",
    "CandidateScore",
    "DesignReport",
    "ScoreWeights",
    "enumerate_candidates",
    "render_design_tsv",
    "run_design",
    "DesignError",
    "ReproError",
    "ServiceError",
    "ServiceOverloadedError",
    "__version__",
]
