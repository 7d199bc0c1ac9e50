"""Guide → search-automaton compilation.

A guide compiles into **two** automata — one for its forward pattern
and one for its reverse-complement pattern — so that a single streaming
pass over the + strand of the reference covers both strands, which is
the property that makes the automata formulation a one-pass algorithm.

A library compiles into the disjoint union of all its guides' automata:
one network, streamed once, reporting for every guide simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .. import alphabet
from ..automata import ops
from ..automata.dfa import Dfa, determinize, minimize
from ..automata.homogeneous import HomogeneousAutomaton, nfa_to_homogeneous
from ..automata.nfa import Nfa
from ..errors import CompileError
from ..grna.guide import Guide
from ..grna.library import GuideLibrary
from .bulge import BulgeBudget, build_bulge_nfa
from .hamming import PatternSegment, build_hamming_nfa


@dataclass(frozen=True)
class SearchBudget:
    """How different an off-target site may be from the guide."""

    mismatches: int = 3
    rna_bulges: int = 0
    dna_bulges: int = 0

    def __post_init__(self) -> None:
        if min(self.mismatches, self.rna_bulges, self.dna_bulges) < 0:
            raise CompileError("budgets must be non-negative")

    @property
    def has_bulges(self) -> bool:
        return self.rna_bulges > 0 or self.dna_bulges > 0

    @property
    def bulges(self) -> BulgeBudget:
        return BulgeBudget(rna=self.rna_bulges, dna=self.dna_bulges)


#: The strands every guide is searched on, in pattern order.
STRANDS = ("+", "-")


def site_offsets(
    side: str, strand: str, guide_length: int, pam_length: int
) -> tuple[int, int]:
    """``(PAM, protospacer)`` offsets in a site's + strand window.

    The one definition of strand geometry; pattern segments, the
    kernel's lane layouts and design enumeration all read it. The
    window is ``guide_length + pam_length`` symbols and reads:

    * 3' PAM, + strand: ``protospacer + PAM``;
    * 3' PAM, − strand: ``revcomp(PAM) + revcomp(protospacer)`` — the
      − strand site reads ``protospacer + PAM`` 5'→3', so the PAM sits
      at the *start* of the + strand window;
    * 5' PAM, + strand: ``PAM + protospacer``;
    * 5' PAM, − strand: ``revcomp(protospacer) + revcomp(PAM)`` — the
      PAM sits at the *end*.
    """
    if (side == "5prime") != (strand == "-"):
        return 0, pam_length
    return guide_length, 0


def _segments(guide: Guide, *, reverse: bool) -> list[PatternSegment]:
    """Pattern segments for one strand of *guide*, in + strand order."""
    protospacer, pam = guide.protospacer, guide.pam.pattern
    if reverse:
        protospacer = alphabet.reverse_complement(protospacer)
        pam = alphabet.reverse_complement(pam)
    segments = [
        PatternSegment(protospacer, budgeted=True),
        PatternSegment(pam, budgeted=False),
    ]
    pam_offset, _ = site_offsets(
        guide.pam.side, "-" if reverse else "+", len(protospacer), len(pam)
    )
    return segments[::-1] if pam_offset == 0 else segments


def _compile_strand(guide: Guide, budget: SearchBudget, *, strand: str) -> Nfa:
    segments = _segments(guide, reverse=strand == "-")
    if budget.has_bulges:
        return build_bulge_nfa(
            segments,
            budget.mismatches,
            budget.bulges,
            guide_name=guide.name,
            strand=strand,
        )
    return build_hamming_nfa(
        segments, budget.mismatches, guide_name=guide.name, strand=strand
    )


@dataclass(frozen=True)
class CompiledGuide:
    """One guide's pair of strand automata plus derived machine forms.

    Every automaton is built on first access and kept: the bit-parallel
    kernel never runs them, so a guide only searched pays for none.
    """

    guide: Guide
    budget: SearchBudget

    @cached_property
    def forward(self) -> Nfa:
        """The + strand automaton."""
        return _compile_strand(self.guide, self.budget, strand="+")

    @cached_property
    def reverse(self) -> Nfa:
        """The - strand automaton."""
        return _compile_strand(self.guide, self.budget, strand="-")

    @cached_property
    def combined(self) -> Nfa:
        """Both strands as one NFA."""
        return ops.union([self.forward, self.reverse])

    @cached_property
    def homogeneous(self) -> HomogeneousAutomaton:
        """Both strands in STE (ANML) form."""
        return nfa_to_homogeneous(self.combined)

    @cached_property
    def dfa(self) -> Dfa:
        """Both strands determinised and minimised (HyperScan-style)."""
        return minimize(determinize(self.combined.without_epsilon()))

    @property
    def num_states(self) -> int:
        return self.combined.num_states

    @property
    def num_stes(self) -> int:
        return self.homogeneous.num_stes


@dataclass(frozen=True)
class CompiledLibrary:
    """A whole guide library compiled into one multi-pattern network."""

    library: GuideLibrary
    budget: SearchBudget
    guides: tuple[CompiledGuide, ...]

    def __iter__(self) -> Iterator[CompiledGuide]:
        return iter(self.guides)

    def __len__(self) -> int:
        return len(self.guides)

    @cached_property
    def combined_nfa(self) -> Nfa:
        """Every guide, both strands, as one NFA."""
        return ops.union([compiled.combined for compiled in self.guides])

    @cached_property
    def homogeneous(self) -> HomogeneousAutomaton:
        """The full network in STE form — what a spatial platform loads."""
        return ops.union_homogeneous([compiled.homogeneous for compiled in self.guides])

    @property
    def num_stes(self) -> int:
        return sum(compiled.num_stes for compiled in self.guides)

    def stats(self) -> ops.AutomatonStats:
        """Structural statistics of the full network."""
        return ops.stats(self.homogeneous)


def compile_guide(guide: Guide, budget: SearchBudget) -> CompiledGuide:
    """Compile one guide into its strand-pair automaton (built on first access)."""
    return CompiledGuide(guide=guide, budget=budget)


def compile_library(library: GuideLibrary, budget: SearchBudget) -> CompiledLibrary:
    """Compile every guide in *library* under one shared *budget*."""
    if len(library) == 0:
        raise CompileError("cannot compile an empty guide library")
    return CompiledLibrary(
        library=library,
        budget=budget,
        guides=tuple(compile_guide(guide, budget) for guide in library),
    )
