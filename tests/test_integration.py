"""End-to-end integration tests across the whole pipeline."""

import subprocess
import sys

import pytest

from repro import (
    Guide,
    GuideLibrary,
    OffTargetSearch,
    ParallelSearch,
    SearchBudget,
    random_genome,
    read_fasta,
    write_fasta,
)
from repro.analysis.report_io import read_tsv
from repro.genome.synthetic import SyntheticGenomeBuilder, plant_sites

from helpers import hit_spans


class TestPlantedPipeline:
    """Synthesize → plant → search on every engine → recover ground truth."""

    @pytest.fixture(scope="class")
    def scenario(self):
        guides = GuideLibrary.from_guides(
            [
                Guide("EMX1", "GAGTCCGAGCAGAAGAAGAA"),
                Guide("FANCF", "GGAATCCCTTCTGCAGCACC"),
            ]
        )
        genome = random_genome(60_000, seed=314, name="chrI")
        genome, planted = plant_sites(genome, guides, per_guide=2, mismatches=2, seed=315)
        return genome, guides, planted

    @pytest.mark.parametrize(
        "engine", ["hyperscan", "fpga", "ap", "infant2", "cas-offinder", "casot"]
    )
    def test_every_engine_recovers_plants(self, scenario, engine):
        genome, guides, planted = scenario
        report = OffTargetSearch(guides, SearchBudget(mismatches=2)).run(
            genome, engine=engine
        )
        found = {(h.guide_name, h.start) for h in report.hits}
        for site in planted:
            assert (guides[site.guide_index].name, site.position) in found

    def test_exact_edit_profiles_reported(self, scenario):
        genome, guides, planted = scenario
        report = OffTargetSearch(guides, SearchBudget(mismatches=3)).run(genome)
        by_start = {h.start: h for h in report.hits}
        for site in planted:
            assert by_start[site.position].mismatches == 2


class TestGapHandling:
    def test_no_hits_inside_assembly_gaps(self):
        guide = Guide("g", "ACGTACGTCAACGTACGTCA")
        target = guide.concrete_target()
        genome = (
            SyntheticGenomeBuilder(seed=1)
            .add_text(target)
            .add_gap(500)
            .add_text(target)
            .build("chrGap")
        )
        report = OffTargetSearch([guide], SearchBudget(mismatches=1)).run(genome)
        starts = sorted(h.start for h in report.hits)
        assert starts == [0, len(target) + 500]


class TestFastaRoundtrip:
    def test_search_from_fasta_file(self, tmp_path):
        genome = random_genome(40_000, seed=316, name="chrF")
        path = tmp_path / "ref.fa"
        write_fasta([genome], path)
        loaded = read_fasta(path)[0].sequence
        guide = Guide("g", loaded.window(1000, 20))
        # The sampled window may not have a PAM; search still runs cleanly.
        report = OffTargetSearch([guide], SearchBudget(mismatches=1)).run(loaded)
        assert report.genome_length == 40_000


class TestStreamingMatchesApi:
    def test_streaming_equals_api_search(self):
        genome = random_genome(90_000, seed=317, name="chrS")
        guides = GuideLibrary.from_guides([Guide("g", "GAGTCCGAGCAGAAGAAGAA")])
        genome, _ = plant_sites(genome, guides, per_guide=3, mismatches=1, seed=318)
        budget = SearchBudget(mismatches=2)
        api_hits = OffTargetSearch(guides, budget).run(genome).hits
        streamed = ParallelSearch(
            guides, budget, workers=1, chunk_length=9_000
        ).search(genome)
        assert hit_spans(streamed) == hit_spans(api_hits)


class TestCliEndToEnd:
    """Drive the installed CLI as a subprocess — the full user path."""

    @pytest.fixture(scope="class")
    def workspace(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        ref = root / "ref.fa"
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "synthesize",
                "--length",
                "30000",
                "--seed",
                "5",
                "--out",
                str(ref),
            ],
            check=True,
            capture_output=True,
        )
        guides = root / "guides.txt"
        guides.write_text("EMX1 GAGTCCGAGCAGAAGAAGAA\n")
        return root, ref, guides

    def test_search_tsv_out(self, workspace):
        root, ref, guides = workspace
        out = root / "hits.tsv"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "search",
                str(ref),
                str(guides),
                "--mismatches",
                "5",
                "--format",
                "tsv",
                "--out",
                str(out),
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        assert "total hits:" in result.stderr
        hits = read_tsv(out)
        for hit in hits:
            assert hit.guide_name == "EMX1"
            assert hit.mismatches <= 5

    def test_chunked_equals_plain(self, workspace):
        root, ref, guides = workspace
        plain_out = root / "plain.tsv"
        chunked_out = root / "chunked.tsv"
        common = [
            sys.executable,
            "-m",
            "repro.cli",
            "search",
            str(ref),
            str(guides),
            "--mismatches",
            "5",
            "--format",
            "tsv",
        ]
        subprocess.run(common + ["--out", str(plain_out)], check=True, capture_output=True)
        subprocess.run(
            common + ["--out", str(chunked_out), "--workers", "1", "--chunk-length", "7000"],
            check=True,
            capture_output=True,
        )
        assert hit_spans(read_tsv(plain_out)) == hit_spans(read_tsv(chunked_out))

    def test_evaluate_subcommand(self, workspace):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "evaluate",
                "--guides",
                "2",
                "--functional-length",
                "50000",
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        assert "Speedups" in result.stdout
