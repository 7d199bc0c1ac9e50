"""Seeded inputs, reference answers and response checks for the e2e benchmark.

Every input of a run is a function of ``(workload, seed)``: the genome,
the guide panels or design regions, the planted ground-truth sites and
the request sequence. The program under test only ever receives the
generated FASTA and the requests.

Correctness is checked two ways. Ground-truth sites are planted with
:func:`repro.plant_sites` at the edge of each workload's budget on both
strands (for ``scan`` one of them straddles a chunk boundary of the
server's ``--chunk-length``), and each must appear in the reference with
its exact edit profile. Every response must then equal the reference
answer computed once at set-up by :class:`repro.OffTargetSearch` (queries)
or :func:`repro.design.run_design` (designs).
"""

from __future__ import annotations

import copy
import json
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro import (
    Guide,
    OffTargetSearch,
    SearchBudget,
    Sequence,
    SyntheticGenomeBuilder,
    alphabet,
    plant_sites,
    random_genome,
)
from repro.design import enumerate_candidates, report_to_json, run_design
from repro.grna.hit import OffTargetHit
from repro.grna.pam import Pam, get_pam
from repro.service.scheduler import ServiceResult

#: Why each workload exists; BENCHMARK.json carries the one-line form.
WHY = {
    "interactive": "open-loop Poisson 3-guide panels on one warm serve: the only "
    "workload where queueing and the batch window show; bypasses compile and the pool",
    "design": "closed-loop design op cycling more candidates than the LRU "
    "holds: every cache lookup misses, NFA and panel compile per request",
    "scan": "closed-loop 32-guide mm=4 screen of a 2 Mbp genome on a "
    "2-worker serve: pool, packing, merge and kernel rate dominate",
    "routed": "closed-loop bulged 3-guide panels through route over two "
    "serve backends: router hop, banded kernel, dense hit reports",
}
WORKLOADS = tuple(WHY)

#: The ``--chunk-length`` of the ``scan`` server; a planted site straddles it.
SCAN_CHUNK = 1 << 19


@dataclass(frozen=True)
class Traffic:
    """How the generator drives a workload."""

    loop: str  # "open": Poisson arrivals at rate_per_s; "closed": back to back
    connections: int
    rate_per_s: float = 0.0


@dataclass
class Workload:
    """Everything one run sends and everything it expects back."""

    name: str
    seed: int
    op: str  # "query" or "design"
    traffic: Traffic
    budget: SearchBudget
    genome: tuple[Sequence, ...]
    serve_args: tuple[str, ...]
    backends: int  # serve processes; 2 puts a `route` process in front
    items: list[Any]  # guide panels (query) or region sequences (design)
    pick: Callable[[np.random.Generator, int], np.ndarray]  # item of each request
    planted: list[dict[str, Any]]
    guides: list[Guide] = field(default_factory=list)  # the query pool
    expected: list[Any] = field(default_factory=list)
    truth_errors: list[str] = field(default_factory=list)  # planted sites missed

    def request_items(self, count: int, stream: int) -> np.ndarray:
        """The item index of each of *count* requests of phase *stream*."""
        return self.pick(np.random.default_rng([self.seed, 7, stream]), count)


# -- input generation ---------------------------------------------------------


def _sample_guides(
    sequence: Sequence,
    count: int,
    rng: np.random.Generator,
    *,
    prefix: str,
    lo: int = 0,
    hi: int | None = None,
    taken: set[str] | None = None,
) -> list[Guide]:
    """*count* distinct NGG protospacers read off *sequence* in [lo, hi)."""
    codes = sequence.codes
    hi = len(codes) if hi is None else hi
    window = codes[lo:hi]
    g = alphabet.CODE_G
    starts = np.flatnonzero((window[21:-1] == g) & (window[22:] == g)) + lo
    rng.shuffle(starts)
    taken = set() if taken is None else taken
    guides: list[Guide] = []
    text = sequence.text
    for start in starts.tolist():
        protospacer = text[start : start + 20]
        if "N" in text[start : start + 23] or protospacer in taken:
            continue
        taken.add(protospacer)
        guides.append(Guide(f"{prefix}{len(guides):02d}", protospacer))
        if len(guides) == count:
            return guides
    raise ValueError(f"{sequence.name} has fewer than {count} usable NGG sites")


def _plant(
    genome: list[Sequence],
    plans: list[tuple[int, list[Guide], dict[str, int]]],
    rng: np.random.Generator,
    *,
    straddle: tuple[int, Guide, dict[str, int]] | None = None,
) -> tuple[list[Sequence], list[dict[str, Any]]]:
    """Plant ground-truth sites and return the edited genome + the truth.

    Each plan is ``(sequence index, guides, edits)``; every guide gets
    two sites, and a plan is redrawn until it covers both strands. The
    optional *straddle* writes one more site across a chunk boundary
    ``(position, guide, edits)`` of sequence 0. The whole plant is
    redrawn if one site overwrote another.
    """
    for _attempt in range(100):
        edited = list(genome)
        truth: list[dict[str, Any]] = []
        for index, guides, edits in plans:
            for _redraw in range(100):
                sequence, sites = plant_sites(
                    edited[index],
                    guides,
                    per_guide=2,
                    seed=int(rng.integers(1 << 32)),
                    **edits,
                )
                if {site.strand for site in sites} == {"+", "-"} and all(
                    _bulge_fits(guides[site.guide_index], site.site_text)
                    for site in sites
                    if edits.get("rna_bulges")
                ):
                    break
            edited[index] = sequence
            truth.extend(
                _truth(guides[site.guide_index], sequence.name, site.position,
                       site.strand, site.site_text, edits)
                for site in sites
            )
        if straddle is not None:
            boundary, guide, edits = straddle
            length = guide.site_length + edits.get("dna_bulges", 0) - edits.get(
                "rna_bulges", 0
            )
            # A window one base longer than the site forces plant_sites to
            # put it at the window start, i.e. across the boundary.
            left = boundary - length // 2
            host = edited[0]
            window = Sequence(host.name, host.codes[left : left + length + 1])
            planted, (site,) = plant_sites(
                window, [guide], seed=int(rng.integers(1 << 32)), **edits
            )
            codes = host.codes.copy()
            codes[left : left + length + 1] = planted.codes
            edited[0] = Sequence(host.name, codes)
            truth.append(
                _truth(guide, host.name, left, site.strand, site.site_text, edits)
            )
        by_name = {sequence.name: sequence for sequence in edited}
        if all(_intact(by_name[site["sequence"]], site) for site in truth):
            return edited, truth
    raise ValueError("could not plant non-overlapping ground-truth sites")


def _bulge_fits(guide: Guide, site: str) -> bool:
    """Whether an RNA-bulge plant deletes a base the search model can skip.

    ``plant_sites`` may delete any protospacer base but the first, while
    the search model only skips guide positions ``1 .. m-2``: deleting
    the PAM-adjacent base is reported as a different edit profile. A
    deletion inside a homopolymer run may sit at any base of the run.
    """
    protospacer = guide.protospacer
    first = next(
        (i for i, base in enumerate(protospacer) if i >= len(site) or site[i] != base),
        len(protospacer) - 1,
    )
    last = first
    while last + 1 < len(protospacer) and protospacer[last + 1] == protospacer[first]:
        last += 1
    return first <= len(protospacer) - 2 and last >= 1


def _truth(
    guide: Guide, sequence: str, position: int, strand: str, site: str,
    edits: dict[str, int],
) -> dict[str, Any]:
    return {
        "guide": guide.name,
        "sequence": sequence,
        "strand": strand,
        "start": position,
        "end": position + len(site),
        "mismatches": edits.get("mismatches", 0),
        "rna_bulges": edits.get("rna_bulges", 0),
        "dna_bulges": edits.get("dna_bulges", 0),
        "text": site if strand == "+" else alphabet.reverse_complement(site),
    }


def _intact(sequence: Sequence, site: dict[str, Any]) -> bool:
    return sequence.text[site["start"] : site["end"]] == site["text"]


def _panels(
    pool: list[Guide], count: int, size: int, rng: np.random.Generator
) -> list[tuple[Guide, ...]]:
    return [
        tuple(pool[index] for index in sorted(rng.choice(len(pool), size, replace=False)))
        for _ in range(count)
    ]


def _zipf(count: int, exponent: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    weights = np.arange(1, count + 1, dtype=float) ** -exponent
    weights /= weights.sum()
    return lambda rng, n: rng.choice(count, size=n, p=weights)


def _uniform(count: int) -> Callable[[np.random.Generator, int], np.ndarray]:
    return lambda rng, n: rng.integers(0, count, size=n)


def _cycle(count: int) -> Callable[[np.random.Generator, int], np.ndarray]:
    return lambda rng, n: np.arange(n) % count


def _interactive(seed: int, rng: np.random.Generator) -> Workload:
    budget = SearchBudget(mismatches=3)
    genome = [random_genome(500_000, seed=int(rng.integers(1 << 32)), name="chr1")]
    pool = _sample_guides(genome[0], 48, rng, prefix="i")
    panels = _panels(pool, 24, 3, rng)
    genome, planted = _plant(genome, [(0, list(panels[0][:2]), {"mismatches": 3})], rng)
    return Workload(
        name="interactive",
        seed=seed,
        op="query",
        # 25 req/s leaves the batch thread headroom when the host slows
        # down; at 50 req/s a slow phase saturated it and tripled latency.
        traffic=Traffic("open", connections=2, rate_per_s=25.0),
        budget=budget,
        genome=tuple(genome),
        serve_args=(),
        backends=1,
        items=panels,
        guides=pool,
        planted=planted,
        pick=_zipf(24, 1.3),
    )


def _design(seed: int, rng: np.random.Generator) -> Workload:
    budget = SearchBudget(mismatches=2)
    genome = [random_genome(200_000, seed=int(rng.integers(1 << 32)), name="chrD")]
    pam = get_pam("NGG")
    regions = [_region(f"region{k:02d}", 32, pam, rng) for k in range(16)]
    # Ground truth: budget-edge copies of two region-0 candidates.
    targets = [c.to_guide(pam) for c in enumerate_candidates(regions[0], pam)[:2]]
    genome, planted = _plant(genome, [(0, targets, {"mismatches": 2})], rng)
    return Workload(
        name="design",
        seed=seed,
        op="design",
        traffic=Traffic("closed", connections=1),
        budget=budget,
        genome=tuple(genome),
        serve_args=(),
        backends=1,
        items=regions,
        planted=planted,
        pick=_cycle(len(regions)),
    )


def _region(name: str, candidates: int, pam: Pam, rng: np.random.Generator) -> Sequence:
    """A random region cut to hold exactly *candidates* design candidates.

    Equal candidate counts give every design request the same work, so
    runs on different seeds measure the same thing.
    """
    while True:
        text = random_genome(1_000, seed=int(rng.integers(1 << 32))).text
        ends = sorted(c.end for c in enumerate_candidates(Sequence.from_text(name, text), pam))
        if len(ends) > candidates and ends[candidates - 1] < ends[candidates]:
            region = Sequence.from_text(name, text[: ends[candidates - 1]])
            if len(enumerate_candidates(region, pam)) == candidates:
                return region


def _scan(seed: int, rng: np.random.Generator) -> Workload:
    budget = SearchBudget(mismatches=4)
    builder = SyntheticGenomeBuilder(seed=int(rng.integers(1 << 32)))
    builder.add_background(700_000)
    builder.add_repeats(count=20, unit_length=300, copies=6)
    builder.add_gap(5_000)
    builder.add_background(300_000)
    genome = [
        builder.build("chr1"),
        random_genome(950_000, seed=int(rng.integers(1 << 32)), name="chr2"),
    ]
    taken: set[str] = set()
    pool = _sample_guides(genome[0], 32, rng, prefix="s", taken=taken)
    pool += _sample_guides(genome[1], 32, rng, prefix="t", taken=taken)
    panels = _panels(pool, 16, 32, rng)
    first = panels[0]
    genome, planted = _plant(
        genome,
        [(0, [first[0]], {"mismatches": 4}), (1, [first[1]], {"mismatches": 4})],
        rng,
        straddle=(SCAN_CHUNK, first[2], {"mismatches": 4}),
    )
    return Workload(
        name="scan",
        seed=seed,
        op="query",
        traffic=Traffic("closed", connections=1),
        budget=budget,
        genome=tuple(genome),
        serve_args=("--workers", "2", "--chunk-length", str(SCAN_CHUNK)),
        backends=1,
        items=panels,
        guides=pool,
        planted=planted,
        pick=_uniform(16),
    )


def _routed(seed: int, rng: np.random.Generator) -> Workload:
    budget = SearchBudget(mismatches=1, rna_bulges=1, dna_bulges=1)
    builder = SyntheticGenomeBuilder(seed=int(rng.integers(1 << 32)))
    builder.add_background(150_000)
    builder.add_repeats(count=12, unit_length=300, copies=60)
    repeats_end = len(builder.build())
    builder.add_background(50_000)
    genome = [builder.build("chrR")]
    # Every panel holds one guide from a repeat family (~80 hits under this
    # budget) and two from unique background (~3 hits each), so panels cost
    # alike; 256 of them spread evenly over the two backends' hash ranges.
    taken: set[str] = set()
    repeated = _sample_guides(
        genome[0], 32, rng, prefix="r", lo=150_000, hi=repeats_end, taken=taken
    )
    unique = _sample_guides(genome[0], 64, rng, prefix="u", hi=150_000, taken=taken)
    pool = repeated + unique
    panels = [
        (repeated[rng.integers(32)], *(unique[i] for i in rng.choice(64, 2, replace=False)))
        for _ in range(256)
    ]
    genome, planted = _plant(
        genome,
        [
            (0, list(panels[0][:2]), {"mismatches": 1}),
            (0, list(panels[1][:2]), {"rna_bulges": 1}),
        ],
        rng,
    )
    return Workload(
        name="routed",
        seed=seed,
        op="query",
        traffic=Traffic("closed", connections=2),
        budget=budget,
        genome=tuple(genome),
        serve_args=(),
        backends=2,
        items=panels,
        guides=pool,
        planted=planted,
        pick=_uniform(len(panels)),
    )


_BUILDERS = {
    "interactive": _interactive,
    "design": _design,
    "scan": _scan,
    "routed": _routed,
}


def build(name: str, seed: int) -> Workload:
    """Generate *name*'s inputs from *seed* and compute the reference."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    workload = _BUILDERS[name](seed, rng)
    if workload.op == "query":
        _reference_queries(workload)
    else:
        _reference_designs(workload)
    return workload


# -- reference answers ----------------------------------------------------------


def _reference_queries(workload: Workload) -> None:
    report = OffTargetSearch(workload.guides, workload.budget).run(
        list(workload.genome)
    )
    by_guide: dict[str, list[OffTargetHit]] = defaultdict(list)
    for hit in report.hits:
        by_guide[hit.guide_name].append(hit)
    workload.expected = [
        tuple(sorted(hit for guide in panel for hit in by_guide[guide.name]))
        for panel in workload.items
    ]
    workload.truth_errors = _missed(workload.planted, report.hits)


def _reference_designs(workload: Workload) -> None:
    hits: list[OffTargetHit] = []
    for region in workload.items:
        report = run_design(
            region, list(workload.genome), "NGG", budget=workload.budget
        )
        workload.expected.append(json.loads(json.dumps(report_to_json(report))))
        hits.extend(h for found in report.hits_by_candidate.values() for h in found)
    # Planted guides carry their candidate's name, as the report's hits do.
    workload.truth_errors = _missed(workload.planted, hits)


def _missed(planted: list[dict[str, Any]], hits: Any) -> list[str]:
    """Planted sites the reference misses or reports with another profile."""
    found = {
        (h.guide_name, h.sequence_name, h.strand, h.start, h.end): h for h in hits
    }
    missed = []
    for site in planted:
        key = (site["guide"], site["sequence"], site["strand"], site["start"], site["end"])
        hit = found.get(key)
        profile = (site["mismatches"], site["rna_bulges"], site["dna_bulges"])
        if hit is None or (hit.mismatches, hit.rna_bulges, hit.dna_bulges) != profile:
            missed.append(f"planted site {key} {profile} reported as {hit}")
    return missed


# -- response checks ----------------------------------------------------------------


def check(workload: Workload, item: int, response: Any) -> str | None:
    """``None`` when *response* equals the reference, else what differs."""
    expected = workload.expected[item]
    if workload.op == "design":
        if response == expected:
            return None
        return f"design of region {item} differs from the reference report"
    hits = tuple(response.hits)
    if hits == expected:
        return None
    missing = sorted(set(expected) - set(hits))
    extra = sorted(set(hits) - set(expected))
    return (
        f"panel {item}: {len(hits)} hits, expected {len(expected)}; "
        f"first missing {missing[:1]}, first extra {extra[:1]}"
    )


def tampered(workload: Workload) -> tuple[int, Any]:
    """A wrong response to item 0, for the self-test of :func:`check`."""
    expected = workload.expected[0]
    if workload.op == "design":
        report = copy.deepcopy(expected)
        report["ranked"][0]["score"] += 1.0
        return 0, report
    hits = list(expected)
    hits[0] = replace(hits[0], mismatches=hits[0].mismatches + 1)
    return 0, ServiceResult(request_id="tampered", hits=tuple(hits))
