"""Core contribution: guide → search-automaton compilation and the search API."""

from .labels import MatchLabel
from .hamming import build_hamming_nfa, hamming_state_count
from .bulge import build_bulge_nfa, BulgeBudget
from .compiler import CompiledGuide, CompiledLibrary, compile_guide, compile_library
from .reference import NaiveSearcher
from .search import OffTargetSearch, SearchBudget, SearchReport
from .streaming import iter_chunks, Chunk
from .counter_design import build_counter_design, counter_design_resources

__all__ = [
    "MatchLabel",
    "build_hamming_nfa",
    "hamming_state_count",
    "build_bulge_nfa",
    "BulgeBudget",
    "CompiledGuide",
    "CompiledLibrary",
    "compile_guide",
    "compile_library",
    "NaiveSearcher",
    "OffTargetSearch",
    "SearchBudget",
    "SearchReport",
    "iter_chunks",
    "Chunk",
    "build_counter_design",
    "counter_design_resources",
]
