"""Property-based tests (hypothesis) for the core invariants.

These are the load-bearing guarantees of the reproduction:

* every execution substrate accepts exactly the same language — the
  vectorised kernel, the oracle DP, the edge-labelled NFA, the
  homogeneous (STE) form, the DFA, and the bit-parallel rows;
* structural predictions (state counts) match the builders;
* serialisation round-trips preserve behaviour.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import alphabet
from repro.core import matcher
from repro.core.compiler import SearchBudget, compile_guide, _segments
from repro.core.hamming import PatternSegment, build_hamming_nfa, hamming_state_count
from repro.core.reference import NaiveSearcher
from repro.genome.sequence import Sequence, TwoBitSequence
from repro.grna.guide import Guide
from repro.grna.hit import dedupe_hits

from helpers import hit_spans, report_spans

dna = st.text(alphabet="ACGT", min_size=1)
genome_text = st.text(alphabet="ACGTN", min_size=0, max_size=300)
protospacer = st.text(alphabet="ACGT", min_size=10, max_size=14)


# -- encoding round-trips -----------------------------------------------------


@given(st.text(alphabet="ACGTN", max_size=200))
def test_encode_decode_roundtrip(text):
    assert alphabet.decode(alphabet.encode(text)) == text


@given(st.text(alphabet="ACGTNRYSWKMBDHV", max_size=100))
def test_reverse_complement_involution(text):
    assert alphabet.reverse_complement(alphabet.reverse_complement(text)) == text


@given(st.text(alphabet="ACGTN", max_size=200))
def test_twobit_roundtrip(text):
    seq = Sequence.from_text("s", text)
    assert TwoBitSequence.pack(seq).unpack().text == text


@given(st.text(alphabet="ACGTN", min_size=1, max_size=100))
def test_revcomp_preserves_length_and_composition(text):
    seq = Sequence.from_text("s", text)
    rc = seq.reverse_complement()
    assert len(rc) == len(seq)
    assert rc.count_n() == seq.count_n()


# -- match/mismatch classes ---------------------------------------------------


@given(st.sampled_from("ACGTRYSWKMBDHVN"), st.sampled_from("ACGTN"))
def test_charclass_consistent_with_iupac_matches(pattern_symbol, base):
    from repro.automata.charclass import CharClass

    in_class = base in CharClass.from_iupac(pattern_symbol)
    assert in_class == alphabet.iupac_matches(pattern_symbol, base)


# -- matcher == oracle --------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    text=genome_text,
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=3),
)
def test_matcher_equals_oracle_mismatch_only(text, proto, mismatches):
    genome = Sequence.from_text("chr", text)
    guide = Guide("g", proto)
    budget = SearchBudget(mismatches=mismatches)
    fast = matcher.find_hits(genome, [guide], budget)
    slow = NaiveSearcher(budget).search(genome, [guide])
    assert hit_spans(fast) == hit_spans(slow)


@settings(max_examples=15, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", max_size=150),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=1),
    rna=st.integers(min_value=0, max_value=1),
    dna=st.integers(min_value=0, max_value=1),
)
def test_matcher_equals_oracle_bulged(text, proto, mismatches, rna, dna):
    genome = Sequence.from_text("chr", text)
    guide = Guide("g", proto)
    budget = SearchBudget(mismatches=mismatches, rna_bulges=rna, dna_bulges=dna)
    fast = matcher.find_hits(genome, [guide], budget)
    slow = NaiveSearcher(budget).search(genome, [guide])
    assert hit_spans(fast) == hit_spans(slow)


# -- automata executions accept the same language -----------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
)
def test_nfa_homogeneous_dfa_agree(seed, proto, mismatches):
    guide = Guide("g", proto)
    compiled = compile_guide(guide, SearchBudget(mismatches=mismatches))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 5, 200).astype(np.uint8)
    nfa_spans = report_spans(compiled.combined.run(codes))
    ste_spans = report_spans(compiled.homogeneous.run(codes))
    dfa_spans = report_spans(compiled.dfa.run(codes))
    assert nfa_spans == ste_spans == dfa_spans


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    proto=protospacer,
    rna=st.integers(min_value=0, max_value=1),
    dna=st.integers(min_value=0, max_value=1),
)
def test_bulged_nfa_and_homogeneous_agree(seed, proto, rna, dna):
    guide = Guide("g", proto)
    compiled = compile_guide(
        guide, SearchBudget(mismatches=1, rna_bulges=rna, dna_bulges=dna)
    )
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, 150).astype(np.uint8)
    assert report_spans(compiled.combined.run(codes)) == report_spans(
        compiled.homogeneous.run(codes)
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
)
def test_bitparallel_agrees_with_nfa(seed, proto, mismatches):
    from repro.engines.hyperscan import HyperscanEngine

    guide = Guide("g", proto)
    compiled = compile_guide(guide, SearchBudget(mismatches=mismatches))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 5, 200).astype(np.uint8)
    engine = HyperscanEngine()
    assert report_spans(engine.simulate_bitparallel(codes, compiled)) == report_spans(
        compiled.combined.run(codes)
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    proto=protospacer,
)
def test_automaton_run_matches_matcher_on_text(seed, proto):
    guide = Guide("g", proto)
    budget = SearchBudget(mismatches=1)
    compiled = compile_guide(guide, budget)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, 250).astype(np.uint8)
    genome = Sequence("chr", codes.copy())
    expected = {
        (h.strand, h.start, h.end) for h in matcher.find_hits(genome, [guide], budget)
    }
    got = {(label.strand, *label.span_at(p)) for p, label in compiled.combined.run(codes)}
    assert got == expected


# -- structural predictions ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    proto=protospacer,
    pam_first=st.booleans(),
    mismatches=st.integers(min_value=0, max_value=5),
)
def test_state_count_formula(proto, pam_first, mismatches):
    segments = [
        PatternSegment(proto, budgeted=True),
        PatternSegment("NGG", budgeted=False),
    ]
    if pam_first:
        segments.reverse()
    nfa = build_hamming_nfa(segments, mismatches, guide_name="g", strand="+")
    assert nfa.num_states == hamming_state_count(segments, mismatches)


@settings(max_examples=20, deadline=None)
@given(proto=protospacer, mismatches=st.integers(min_value=0, max_value=4))
def test_ste_estimate_exact_for_mismatch_grids(proto, mismatches):
    from repro.platforms.resources import estimate_stes

    guide = Guide("g", proto)
    compiled = compile_guide(guide, SearchBudget(mismatches=mismatches))
    assert compiled.num_stes == estimate_stes(len(proto), 3, mismatches)


# -- hit algebra ---------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    text=genome_text,
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
)
def test_dedupe_idempotent_and_sorted(text, proto, mismatches):
    genome = Sequence.from_text("chr", text)
    hits = matcher.find_hits(genome, [Guide("g", proto)], SearchBudget(mismatches=mismatches))
    once = dedupe_hits(hits)
    assert dedupe_hits(once) == once
    assert once == sorted(once)


@settings(max_examples=20, deadline=None)
@given(
    prefix=st.text(alphabet="ACGT", max_size=40),
    suffix=st.text(alphabet="ACGT", max_size=40),
    proto=protospacer,
)
def test_planted_exact_target_always_found(prefix, suffix, proto):
    guide = Guide("g", proto)
    target = guide.concrete_target()
    genome = Sequence.from_text("chr", prefix + target + suffix)
    hits = matcher.find_hits(genome, [guide], SearchBudget(mismatches=0))
    assert any(
        h.start == len(prefix) and h.strand == "+" and h.mismatches == 0 for h in hits
    )


@settings(max_examples=20, deadline=None)
@given(
    prefix=st.text(alphabet="ACGT", max_size=30),
    proto=protospacer,
)
def test_reverse_strand_symmetry(prefix, proto):
    # Searching the reverse complement of a genome swaps strands but
    # preserves the multiset of (guide, mismatches) hits.
    guide = Guide("g", proto)
    target = guide.concrete_target()
    genome = Sequence.from_text("chr", prefix + target)
    budget = SearchBudget(mismatches=1)
    forward = matcher.find_hits(genome, [guide], budget)
    flipped = matcher.find_hits(genome.reverse_complement(), [guide], budget)
    assert sorted(h.mismatches for h in forward) == sorted(
        h.mismatches for h in flipped
    )
    assert {h.strand for h in forward} == {
        {"+": "-", "-": "+"}[h.strand] for h in flipped
    }


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), proto=protospacer)
def test_anml_roundtrip_preserves_behaviour(seed, proto):
    from repro.automata.anml import from_anml, to_anml

    compiled = compile_guide(Guide("g", proto), SearchBudget(mismatches=1))
    original = compiled.homogeneous
    back = from_anml(to_anml(original))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, 150).astype(np.uint8)
    assert sorted(c for c, _ in original.run(codes)) == sorted(
        c for c, _ in back.run(codes)
    )


@settings(max_examples=25, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", max_size=200),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
)
def test_budget_monotonicity(text, proto, mismatches):
    # Every hit at budget k is still a hit at budget k+1.
    genome = Sequence.from_text("chr", text)
    guide = Guide("g", proto)
    small = matcher.find_hits(genome, [guide], SearchBudget(mismatches=mismatches))
    large = matcher.find_hits(genome, [guide], SearchBudget(mismatches=mismatches + 1))
    small_keys = {h.key for h in small}
    large_keys = {h.key for h in large}
    assert small_keys <= large_keys


@settings(max_examples=15, deadline=None)
@given(
    text=st.text(alphabet="ACGTN", min_size=0, max_size=400),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
    chunk_length=st.integers(min_value=40, max_value=120),
)
def test_streaming_equals_whole_genome(text, proto, mismatches, chunk_length):
    from repro.core.parallel import ParallelSearch

    genome = Sequence.from_text("chr", text)
    guide = Guide("g", proto)
    budget = SearchBudget(mismatches=mismatches)
    whole = matcher.find_hits(genome, [guide], budget)
    chunked = ParallelSearch(
        [guide], budget, workers=1, chunk_length=chunk_length
    ).search(genome)
    assert hit_spans(chunked) == hit_spans(whole)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
    length=st.integers(min_value=0, max_value=260),
)
def test_strided_equals_one_stride(seed, proto, mismatches, length):
    from repro.automata.striding import build_strided_hamming, strided_search
    from repro.core.compiler import _segments
    from repro.core.labels import MatchLabel

    guide = Guide("g", proto)
    compiled = compile_guide(guide, SearchBudget(mismatches=mismatches))
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 5, length).astype(np.uint8)
    for strand, nfa in (("+", compiled.forward), ("-", compiled.reverse)):
        segments = _segments(guide, reverse=strand == "-")
        total = sum(len(segment.text) for segment in segments)

        def label_factory(j, strand=strand, total=total):
            return MatchLabel(guide.name, strand, j, 0, 0, total)

        strided = build_strided_hamming(segments, mismatches, label_factory=label_factory)
        assert set(strided_search(codes, strided)) == set(nfa.run(codes))


@settings(max_examples=25, deadline=None)
@given(
    text=genome_text,
    proto=protospacer,
    mismatches=st.integers(min_value=0, max_value=2),
)
def test_tsv_roundtrip_preserves_hits(text, proto, mismatches):
    import io

    from repro.analysis.report_io import read_tsv, write_tsv

    genome = Sequence.from_text("chr", text)
    hits = matcher.find_hits(genome, [Guide("g", proto)], SearchBudget(mismatches=mismatches))
    buffer = io.StringIO()
    write_tsv(hits, buffer)
    buffer.seek(0)
    assert read_tsv(buffer) == hits
