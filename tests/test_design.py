"""Tests for the guide-design pipeline (enumerate → coalesced vet → rank).

Layers, matching the pipeline stages:

* ``TestEnumeration`` — the hypothesis regex-oracle property (every
  candidate the oracle finds, on both strands and both PAM sides, and
  nothing else) plus targeted strand-geometry pins;
* ``TestVetting`` — the headline acceptance invariant: the coalesced
  one-pass vet is bit-identical to a per-candidate solo search for
  every shipped PAM preset, with a chunk-straddle planted-candidate
  regression;
* ``TestScoring`` — weight-table validation, score components,
  own-site exclusion, deterministic ranking;
* ``TestDesignChecks`` — the DSG001–DSG004 pre-flight rules;
* ``TestDesignPipeline`` — ``run_design`` end to end (TSV/JSON bytes
  determinism, empty-region typed failure);
* ``TestDesignService`` — the socket ``design`` op: document-identical
  to the in-process run, idempotent under a scripted mid-line
  disconnect (one execution, clean SVC rules).
"""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro import alphabet, write_fasta
from repro.cli import main
from repro.core.search import OffTargetSearch, SearchBudget
from repro.design import (
    ScoreWeights,
    enumerate_candidates,
    render_design_tsv,
    report_to_json,
    run_design,
    score_candidates,
    vet_candidates,
    vet_candidates_via_service,
    weights_from_mapping,
)
from repro.design.score import gc_fraction, longest_homopolymer_run
from repro.design.vet import build_panel
from repro.errors import DesignError
from repro.genome.sequence import Sequence
from repro.genome.synthetic import random_genome
from repro.grna.guide import Guide
from repro.grna.library import GuideLibrary
from repro.grna.pam import get_pam
from repro.service import (
    ChaosPlan,
    OffTargetServer,
    OffTargetService,
    RetryPolicy,
    ServiceClient,
)

#: Every PAM preset the acceptance criterion names, 3' and 5' side.
PRESETS = ("NGG", "NAG", "NRG", "TTTV", "NNGRRT")

#: Shared deterministic workload: a genome and a region cut out of it,
#: so every candidate has at least its own locus genome-side.
GENOME = random_genome(4000, seed=23, name="chrDesign")
REGION = Sequence.from_text("region", GENOME.text[500:1500])


def guide_length_for(preset: str) -> int:
    """20 nt everywhere except TTTV, which runs the short tru-gRNA path."""
    return 9 if preset == "TTTV" else 20


# -- enumeration --------------------------------------------------------------


def _symbol_class(symbol: str) -> str:
    """Regex class of + strand genome bases satisfying an IUPAC symbol.

    Mirrors :func:`repro.alphabet.iupac_matches`: a genome ``N``
    satisfies only a pattern ``N``.
    """
    bases = alphabet.IUPAC[symbol]
    if symbol == "N":
        bases += "N"
    return "[" + bases + "]"


def oracle_candidates(text, pam, guide_length):
    """Regex-oracle enumeration: set of (start, strand, proto, pam_site).

    Forward sites match the pattern directly; reverse sites match the
    reverse-complemented pattern on the + strand (candidates are then
    reported in guide orientation). Lookaheads make overlapping sites
    visible.
    """
    proto = "([ACGT]{%d})" % guide_length
    forward = "(" + "".join(_symbol_class(s) for s in pam.pattern) + ")"
    rc_pattern = alphabet.reverse_complement(pam.pattern)
    reverse = "(" + "".join(_symbol_class(s) for s in rc_pattern) + ")"
    if pam.side == "3prime":
        forward_re = re.compile("(?=" + proto + forward + ")")
        reverse_re = re.compile("(?=" + reverse + proto + ")")
    else:
        forward_re = re.compile("(?=" + forward + proto + ")")
        reverse_re = re.compile("(?=" + proto + reverse + ")")
    expected = set()
    for match in forward_re.finditer(text):
        one, two = match.group(1), match.group(2)
        proto_site, pam_site = (one, two) if pam.side == "3prime" else (two, one)
        expected.add((match.start(), "+", proto_site, pam_site))
    for match in reverse_re.finditer(text):
        one, two = match.group(1), match.group(2)
        # On the + strand a reverse site reads rc(pam)+rc(proto) for a
        # 3' PAM and rc(proto)+rc(pam) for a 5' PAM.
        rc_pam, rc_proto = (one, two) if pam.side == "3prime" else (two, one)
        expected.add(
            (
                match.start(),
                "-",
                alphabet.reverse_complement(rc_proto),
                alphabet.reverse_complement(rc_pam),
            )
        )
    return expected


class TestEnumeration:
    @settings(max_examples=100, deadline=None)
    @given(
        text=st.text(alphabet="ACGTN", min_size=0, max_size=400),
        # "NNN" is a custom all-N 3' PAM: every start passes the PAM test.
        preset=st.sampled_from(PRESETS + ("NNN",)),
        guide_length=st.integers(min_value=1, max_value=30),
    )
    def test_matches_regex_oracle(self, text, preset, guide_length):
        pam = get_pam(preset)
        region = Sequence.from_text("r", text)
        found = {
            (c.start, c.strand, c.protospacer, c.pam_site)
            for c in enumerate_candidates(region, pam, guide_length=guide_length)
        }
        assert found == oracle_candidates(text, pam, guide_length)

    def test_three_prime_reverse_pam_sits_at_window_start(self):
        # + strand reads rc(PAM)+rc(proto): CCA-TTTT... is a − strand
        # NGG site whose protospacer starts right after the PAM.
        region = Sequence.from_text("r", "CCA" + "TGCA" * 5)
        (candidate,) = enumerate_candidates(region, "NGG", guide_length=20)
        assert candidate.strand == "-"
        assert (candidate.start, candidate.end) == (0, 23)
        assert candidate.pam_site == "TGG"
        assert candidate.protospacer == alphabet.reverse_complement("TGCA" * 5)

    def test_five_prime_reverse_pam_sits_at_window_end(self):
        # Satellite regression: for a 5' PAM on the − strand, the +
        # strand window reads rc(proto)+rc(PAM) — the PAM occupies the
        # *end* of the window. Pin the exact coordinates.
        proto = "ACGTACGTA"  # 9 nt tru-guide
        pam_site = "TTTA"  # concrete TTTV
        window = alphabet.reverse_complement(pam_site + proto)
        region = Sequence.from_text("r", "G" * 7 + window + "G" * 7)
        candidates = enumerate_candidates(region, "TTTV", guide_length=9)
        reverse = [c for c in candidates if c.strand == "-" and c.start == 7]
        assert len(reverse) == 1
        (candidate,) = reverse
        assert (candidate.start, candidate.end) == (7, 7 + len(window))
        assert candidate.protospacer == proto
        assert candidate.pam_site == pam_site
        # The PAM bases really are the last 4 of the + strand window.
        assert region.text[candidate.end - 4 : candidate.end] == (
            alphabet.reverse_complement(pam_site)
        )

    def test_nngrrt_reverse_window_coordinates(self):
        # Same pin for the 6 bp SaCas9 motif (3' side): on the − strand
        # the PAM occupies the *start* of the + strand window.
        proto = "TGCATGCATGCATGCATGCA"
        pam_site = "ACGAGT"  # concrete NNGRRT
        window = alphabet.reverse_complement(proto + pam_site)
        region = Sequence.from_text("r", "C" * 5 + window + "C" * 5)
        candidates = enumerate_candidates(region, "NNGRRT", guide_length=20)
        reverse = [c for c in candidates if c.strand == "-" and c.start == 5]
        assert len(reverse) == 1
        (candidate,) = reverse
        assert (candidate.start, candidate.end) == (5, 5 + 26)
        assert candidate.protospacer == proto
        assert candidate.pam_site == pam_site
        assert region.text[candidate.start : candidate.start + 6] == (
            alphabet.reverse_complement(pam_site)
        )

    def test_candidates_are_ordered_and_named_deterministically(self):
        candidates = enumerate_candidates(REGION, "NGG", guide_length=20)
        assert candidates
        keys = [(c.sequence_name, c.start, c.strand) for c in candidates]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2] == "-"))
        assert all(
            c.name == f"{c.sequence_name}:{c.start}:"
            f"{'fwd' if c.strand == '+' else 'rev'}"
            for c in candidates
        )

    def test_full_site_span_covers_protospacer_and_pam(self):
        for preset in PRESETS:
            pam = get_pam(preset)
            length = guide_length_for(preset)
            for candidate in enumerate_candidates(REGION, pam, guide_length=length):
                assert candidate.site_length == length + len(pam)
                window = REGION.text[candidate.start : candidate.end]
                if candidate.strand == "-":
                    window = alphabet.reverse_complement(window)
                if pam.side == "3prime":
                    assert window == candidate.protospacer + candidate.pam_site
                else:
                    assert window == candidate.pam_site + candidate.protospacer

    def test_guide_length_validation_is_typed(self):
        with pytest.raises(DesignError):
            enumerate_candidates(REGION, "NGG", guide_length=0)
        with pytest.raises(DesignError):
            enumerate_candidates(REGION, "NGG", guide_length=31)
        with pytest.raises(DesignError):
            enumerate_candidates(REGION, "NGG", guide_length=True)
        with pytest.raises(DesignError):
            enumerate_candidates([], "NGG")

    @pytest.mark.parametrize("preset", PRESETS)
    def test_region_of_one_window_and_shorter(self, preset):
        pam = get_pam(preset)
        length = guide_length_for(preset)
        guide = Guide("g", ("ACGT" * 5)[:length], pam, min_length=1)
        window = guide.concrete_target()
        found = enumerate_candidates(
            Sequence.from_text("r", window), pam, guide_length=length
        )
        assert ("+", guide.protospacer) in {(c.strand, c.protospacer) for c in found}
        assert all((c.start, c.end) == (0, len(window)) for c in found)
        assert {
            (c.start, c.strand, c.protospacer, c.pam_site) for c in found
        } == oracle_candidates(window, pam, length)
        for short in (window[:-1], window[1:], ""):
            region = Sequence.from_text("r", short)
            assert enumerate_candidates(region, pam, guide_length=length) == ()

    def test_repeated_sequence_name_is_refused(self):
        # Candidate names are sequence:start:strand, and vetting fans
        # hits out by name: two regions named "r" would share names, and
        # each would count the other's on-target site as an off-target.
        first = random_genome(400, seed=1, name="r")
        second = random_genome(400, seed=2, name="r")
        with pytest.raises(DesignError, match="'r'"):
            enumerate_candidates([first, second], "NGG")
        genome = Sequence.from_text("chrBoth", first.text + second.text)
        with pytest.raises(DesignError, match="'r'"):
            run_design([first, second], genome, "NGG")

    def test_n_runs_block_protospacers_but_not_pattern_n(self):
        # The protospacer must be concrete; the PAM's N positions admit
        # a genome N (the ambiguity lives in the reference).
        region = Sequence.from_text("r", "ACGTN" + "ACGT" * 6)
        lengths = {c.start for c in enumerate_candidates(region, "NGG", guide_length=4)}
        assert all(start > 4 or start + 4 <= 4 for start in lengths)


# -- coalesced vetting --------------------------------------------------------


class TestVetting:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_one_pass_vet_is_bit_identical_to_solo_searches(self, preset):
        # The acceptance invariant: ONE genome pass for the whole panel,
        # and each candidate's hit set bit-identical to a solo search.
        pam = get_pam(preset)
        length = guide_length_for(preset)
        candidates = enumerate_candidates(REGION, pam, guide_length=length)
        assert candidates, f"workload must yield {preset} candidates"
        budget = SearchBudget(mismatches=2)
        vetted = vet_candidates(
            candidates, GENOME, budget, pam, chunk_length=1 << 12
        )
        assert vetted.genome_passes == 1
        for candidate in candidates:
            solo = OffTargetSearch(
                GuideLibrary.from_guides([candidate.to_guide(pam)]), budget
            ).run(GENOME)
            assert list(vetted.hits_by_candidate[candidate.name]) == sorted(
                solo.hits
            ), f"{preset} candidate {candidate.name} diverged from solo search"

    def test_duplicate_protospacers_share_one_panel_guide(self):
        text = REGION.text[:200]
        doubled = Sequence.from_text("r2", text + text)
        candidates = enumerate_candidates(doubled, "NGG", guide_length=20)
        panel, representative_of = build_panel(list(candidates), get_pam("NGG"))
        assert len(panel) < len(candidates)
        assert set(representative_of) == {c.name for c in candidates}
        vetted = vet_candidates(
            candidates, GENOME, SearchBudget(mismatches=1), get_pam("NGG")
        )
        assert vetted.panel_guides == len(panel)
        # Duplicates receive identical hit sets modulo the name.
        by_content = {}
        for candidate in candidates:
            spans = tuple(
                (h.sequence_name, h.start, h.end, h.strand, h.edits)
                for h in vetted.hits_by_candidate[candidate.name]
            )
            by_content.setdefault(candidate.protospacer, set()).add(spans)
        assert all(len(variants) == 1 for variants in by_content.values())

    def test_chunk_straddle_finds_planted_off_target(self):
        # A planted off-target straddling the 4096-byte chunk boundary
        # must be found by the chunked coalesced pass.
        protospacer = "GACTGACTGACTGACTGACT"
        site = protospacer + "TGG"
        boundary = 1 << 12
        background = random_genome(2 * boundary, seed=91, name="chrStraddle").text
        start = boundary - 10  # 23 bp site: 10 bp left, 13 bp right
        text = background[:start] + site + background[start + len(site) :]
        genome = Sequence.from_text("chrStraddle", text)
        region = Sequence.from_text("region", site)
        candidates = enumerate_candidates(region, "NGG", guide_length=20)
        assert any(c.protospacer == protospacer for c in candidates)
        budget = SearchBudget(mismatches=1)
        chunked = vet_candidates(
            candidates, genome, budget, get_pam("NGG"), chunk_length=boundary
        )
        whole = vet_candidates(
            candidates, genome, budget, get_pam("NGG"), chunk_length=len(text)
        )
        assert chunked.hits_by_candidate == whole.hits_by_candidate
        (candidate,) = [c for c in candidates if c.protospacer == protospacer]
        starts = {h.start for h in chunked.hits_by_candidate[candidate.name]}
        assert start in starts

    def test_vet_rejects_empty_candidate_set(self):
        with pytest.raises(DesignError):
            build_panel([], get_pam("NGG"))

    def test_service_vet_matches_in_process(self):
        candidates = enumerate_candidates(REGION, "NGG", guide_length=20)
        budget = SearchBudget(mismatches=2)
        service = OffTargetService(chunk_length=1 << 12)
        service.add_genome("default", GENOME)
        via_service = vet_candidates_via_service(
            candidates, service, budget, get_pam("NGG")
        )
        in_process = vet_candidates(candidates, GENOME, budget, get_pam("NGG"))
        assert via_service.hits_by_candidate == in_process.hits_by_candidate
        assert via_service.panel_guides == in_process.panel_guides


# -- scoring ------------------------------------------------------------------


class TestScoring:
    def test_weight_table_validation_is_typed(self):
        with pytest.raises(DesignError):
            weights_from_mapping({"gc_weight": 0.9})  # components don't sum to 1
        with pytest.raises(DesignError):
            weights_from_mapping({"nonsense": 1})
        with pytest.raises(DesignError):
            weights_from_mapping({"gc_weight": True})
        with pytest.raises(DesignError):
            weights_from_mapping({"seed_mismatch_weight": 0.0})
        with pytest.raises(DesignError):
            weights_from_mapping(
                {"position_weights": [0.5, 0.5]}, guide_length=20
            )  # table must cover the guide length
        assert weights_from_mapping(None) == ScoreWeights()
        custom = weights_from_mapping(
            {"gc_weight": 0.5, "homopolymer_weight": 0.25, "specificity_weight": 0.25}
        )
        assert custom.gc_weight == 0.5

    def test_component_helpers(self):
        assert gc_fraction("GGCC") == 1.0
        assert gc_fraction("AATT") == 0.0
        assert longest_homopolymer_run("AAAACGT") == 4
        assert longest_homopolymer_run("ACGT") == 1

    def test_seed_mismatches_outweigh_distal(self):
        weights = ScoreWeights()
        pam = get_pam("NGG")
        # PAM distance 0 is seed-proximal for a 3' PAM; distance 19 distal.
        assert weights.mismatch_weight(0) == weights.seed_mismatch_weight
        assert weights.mismatch_weight(19) == weights.distal_mismatch_weight
        assert weights.seed_mismatch_weight < weights.distal_mismatch_weight
        region = Sequence.from_text("region", REGION.text[:300])
        candidates = enumerate_candidates(region, pam, guide_length=20)
        budget = SearchBudget(mismatches=2)
        vetted = vet_candidates(candidates, GENOME, budget, pam)
        ranked = score_candidates(candidates, pam, vetted.hits_by_candidate, weights)
        for score in ranked:
            assert 0.0 <= score.total <= 1.0
            assert 0.0 < score.specificity <= 1.0
            assert score.off_targets == len(
                vetted.hits_by_candidate[score.candidate.name]
            ) - (1 if _has_own_site(score, vetted) else 0)

    def test_own_site_is_excluded_when_self_vetting(self):
        report = run_design(
            REGION, None, "NGG", guide_length=20, budget=SearchBudget(mismatches=0)
        )
        for score in report.ranked:
            # Exact-match self-vet: the only 0-edit hit at the candidate's
            # own locus is excluded, so unique candidates are perfectly
            # specific.
            own = [
                h
                for h in report.hits_by_candidate[score.candidate.name]
                if h.start == score.candidate.start
                and h.strand == score.candidate.strand
            ]
            if score.off_targets == 0:
                assert score.specificity == 1.0
            assert own  # the locus itself is always found by the search

    def test_ranking_is_deterministic_with_stable_tie_break(self):
        pam = get_pam("NGG")
        candidates = enumerate_candidates(REGION, pam, guide_length=20)
        vetted = vet_candidates(candidates, GENOME, SearchBudget(mismatches=1), pam)
        weights = ScoreWeights()
        first = score_candidates(candidates, pam, vetted.hits_by_candidate, weights)
        second = score_candidates(candidates, pam, vetted.hits_by_candidate, weights)
        assert first == second
        totals = [s.total for s in first]
        assert totals == sorted(totals, reverse=True)

    def test_position_weight_table_is_applied(self):
        pam = get_pam("NGG")
        flat = ScoreWeights(position_weights=tuple([0.5] * 20))
        tiered = ScoreWeights()
        assert flat.mismatch_weight(3) == 0.5
        assert tiered.mismatch_weight(3) == tiered.seed_mismatch_weight
        candidates = enumerate_candidates(REGION, pam, guide_length=20)[:4]
        vetted = vet_candidates(candidates, GENOME, SearchBudget(mismatches=2), pam)
        flat_scores = score_candidates(candidates, pam, vetted.hits_by_candidate, flat)
        tiered_scores = score_candidates(
            candidates, pam, vetted.hits_by_candidate, tiered
        )
        assert {s.candidate.name for s in flat_scores} == {
            s.candidate.name for s in tiered_scores
        }


def _has_own_site(score, vetted):
    return any(
        h.edits == 0
        and h.start == score.candidate.start
        and h.strand == score.candidate.strand
        and h.sequence_name == score.candidate.sequence_name
        for h in vetted.hits_by_candidate[score.candidate.name]
    )


# -- DSG check rules ----------------------------------------------------------


class TestDesignChecks:
    def rules(self, report, severity=None):
        diagnostics = report.diagnostics
        if severity is not None:
            diagnostics = [d for d in diagnostics if d.severity.name == severity]
        return {d.rule for d in diagnostics}

    def test_dsg001_empty_panel_is_an_error(self):
        from repro.check import check_design_request

        report = check_design_request([], get_pam("NGG"), guide_length=20)
        assert "DSG001" in self.rules(report, "ERROR")
        assert not report.ok

    def test_dsg002_malformed_weights(self):
        from repro.check import check_design_request

        candidates = enumerate_candidates(REGION, "NGG", guide_length=20)
        report = check_design_request(
            candidates,
            get_pam("NGG"),
            guide_length=20,
            weights={"gc_weight": 2.0},
        )
        assert "DSG002" in self.rules(report, "ERROR")

    def test_dsg003_capacity_preflight(self):
        from repro.check import check_design_request
        from repro.platforms.spec import ApSpec

        candidates = enumerate_candidates(REGION, "NGG", guide_length=20)
        tiny = ApSpec(
            stes_per_chip=4, chips_per_rank=1, ranks=1, routable_fraction=1.0
        )
        report = check_design_request(
            candidates,
            get_pam("NGG"),
            guide_length=20,
            budget=SearchBudget(mismatches=2),
            specs=(tiny,),
        )
        assert "DSG003" in self.rules(report)
        assert not report.ok

    def test_dsg004_reports_panel_dedup(self):
        from repro.check import check_design_request

        text = REGION.text[:150]
        doubled = Sequence.from_text("r", text + text)
        candidates = enumerate_candidates(doubled, "NGG", guide_length=20)
        report = check_design_request(candidates, get_pam("NGG"), guide_length=20)
        assert report.ok
        (observation,) = [d for d in report.diagnostics if d.rule == "DSG004"]
        assert f"{len(candidates)} candidate(s)" in observation.message
        panel, _ = build_panel(list(candidates), get_pam("NGG"))
        assert f"{len(panel)} distinct" in observation.message


# -- the pipeline end to end --------------------------------------------------


class TestDesignPipeline:
    def test_reports_are_byte_deterministic(self):
        kwargs = dict(guide_length=20, budget=SearchBudget(mismatches=2))
        first = run_design(REGION, GENOME, "NGG", **kwargs)
        second = run_design(REGION, GENOME, "NGG", **kwargs)
        assert render_design_tsv(first) == render_design_tsv(second)
        assert json.dumps(
            report_to_json(first), sort_keys=True
        ) == json.dumps(report_to_json(second), sort_keys=True)
        assert first.genome_passes == 1
        header, *rows = render_design_tsv(first).splitlines()
        assert header.startswith("#rank\tname\t")
        assert len(rows) == first.num_candidates

    def test_empty_region_raises_dsg001_typed(self):
        with pytest.raises(DesignError) as excinfo:
            run_design(Sequence.from_text("r", "AAAA"), GENOME, "NGG")
        assert "DSG001" in str(excinfo.value)

    def test_invalid_weights_fail_before_any_genome_pass(self):
        bad = ScoreWeights(gc_weight=0.9)
        with pytest.raises(DesignError):
            run_design(REGION, GENOME, "NGG", weights=bad)

    def test_cli_refuses_repeated_region_names(self, tmp_path, capsys):
        path = tmp_path / "region.fa"
        write_fasta(
            [random_genome(400, seed=1, name="r"), random_genome(400, seed=2, name="r")],
            path,
        )
        assert main(["design", str(path), "--mismatches", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'r'" in captured.err

    def test_stats_carry_obs_snapshot(self):
        report = run_design(REGION, GENOME, "NGG", budget=SearchBudget(mismatches=1))
        obs = report.stats["obs"]
        assert obs["counters"]["design.candidates"] == report.num_candidates
        assert report.summary().startswith(f"{report.num_candidates} candidate(s)")


# -- the socket design op -----------------------------------------------------


@pytest.fixture(scope="module")
def design_server():
    service = OffTargetService(background=True, chunk_length=1 << 12)
    service.add_genome("default", GENOME)
    server = OffTargetServer(service)
    server.start()
    yield server
    server.stop()


class TestDesignService:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_socket_design_matches_in_process(self, design_server, preset):
        length = guide_length_for(preset)
        budget = SearchBudget(mismatches=2)
        host, port = design_server.address
        with ServiceClient(host, port, timeout_seconds=60) as client:
            document = client.design(
                REGION.text, pam=preset, guide_length=length, budget=budget
            )
        reference = report_to_json(
            run_design(REGION, GENOME, preset, guide_length=length, budget=budget)
        )
        assert json.dumps(document, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_design_is_idempotent_under_midline_disconnect(self):
        # Satellite: the scripted chaos regression. The response to the
        # first attempt dies mid-line; the retried id must be answered
        # from the idempotency record without re-running the pipeline.
        from repro.check import check_server

        service = OffTargetService(background=True, chunk_length=1 << 12)
        service.add_genome("default", GENOME)
        server = OffTargetServer(
            service, chaos=ChaosPlan.scripted({"server.write": ["truncate_write"]})
        )
        host, port = server.start()
        try:
            with ServiceClient(
                host,
                port,
                timeout_seconds=60,
                retry=RetryPolicy(seed=5, base_delay_seconds=0.001),
            ) as client:
                document = client.design(
                    REGION.text,
                    pam="NGG",
                    budget=SearchBudget(mismatches=2),
                    request_id="design-chaos",
                )
            reference = report_to_json(
                run_design(REGION, GENOME, "NGG", budget=SearchBudget(mismatches=2))
            )
            assert json.dumps(document, sort_keys=True) == json.dumps(
                reference, sort_keys=True
            )
            assert server.execution_counts() == {"design-chaos": 1}
            report = check_server(server)
            assert not [
                d for d in report.diagnostics if d.severity.name == "ERROR"
            ], report.diagnostics
        finally:
            server.stop()

    def test_malformed_design_requests_are_bad_requests(self, design_server):
        from repro.errors import ServiceError

        host, port = design_server.address
        with ServiceClient(host, port, timeout_seconds=60) as client:
            for payload in (
                {"op": "design"},  # no region
                {"op": "design", "region": "ACGT" * 30, "guide_length": "x"},
                {"op": "design", "region": "ACGT" * 30, "weights": [1, 2]},
                {"op": "design", "region": "AAAA"},  # DSG001 -> typed failure
                {
                    "op": "design",
                    "region": "ACGT" * 30,
                    "weights": {"gc_weight": 2.0},
                },
            ):
                with pytest.raises(ServiceError):
                    client.roundtrip(payload)
                assert client.ping()  # the connection survives each rejection
