"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.results import load_stats_json
from repro.cli import build_parser, main
from repro.errors import ReproError
from repro.genome.fasta import write_fasta
from repro.genome.synthetic import random_genome


@pytest.fixture()
def reference(tmp_path):
    path = tmp_path / "ref.fa"
    write_fasta([random_genome(30_000, seed=71, name="chrCli")], path)
    return path


@pytest.fixture()
def guide_table(tmp_path):
    path = tmp_path / "guides.txt"
    path.write_text("EMX1 GAGTCCGAGCAGAAGAAGAA\nVEGFA GGGTGGGGGGAGTTTGCTCC\n")
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "r.fa", "g.txt"])
        assert args.engine == "hyperscan"
        assert args.mismatches == 3

    def test_budget_flags(self):
        args = build_parser().parse_args(
            ["search", "r.fa", "g.txt", "--mismatches", "2", "--rna-bulges", "1"]
        )
        assert (args.mismatches, args.rna_bulges, args.dna_bulges) == (2, 1, 0)

    def test_workers_default_is_serial_kernel(self):
        args = build_parser().parse_args(["search", "r.fa", "g.txt"])
        assert args.workers is None

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_workers_rejects_invalid_values(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["search", "r.fa", "g.txt", "--workers", bad])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "-1", "huge"])
    def test_chunk_length_rejects_nonpositive(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["search", "r.fa", "g.txt", "--chunk-length", bad]
            )
        assert excinfo.value.code == 2
        assert "--chunk-length" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--mismatches", "--rna-bulges", "--dna-bulges"])
    @pytest.mark.parametrize("command", ["search", "evaluate", "check"])
    def test_budget_flags_reject_negative(self, command, flag, capsys):
        argv = {
            "search": ["search", "r.fa", "g.txt"],
            "evaluate": ["evaluate"],
            "check": ["check", "--guides", "g.txt"],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, flag, "-1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "non-negative" in err

    def test_budget_flags_accept_zero(self):
        args = build_parser().parse_args(["search", "r.fa", "g.txt", "--mismatches", "0"])
        assert args.mismatches == 0

    def test_synthesize_rejects_nonpositive_length(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["synthesize", "--length", "0", "--out", "x.fa"])
        assert excinfo.value.code == 2
        assert "--length" in capsys.readouterr().err


class TestSearch:
    def test_search_outputs_bed(self, reference, guide_table, capsys):
        code = main(["search", str(reference), str(guide_table), "--mismatches", "4"])
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            fields = line.split("\t")
            assert len(fields) == 6
            assert fields[0] == "chrCli"

    def test_search_each_engine(self, reference, guide_table, capsys):
        for engine in ("fpga", "ap", "cas-offinder"):
            assert main(
                ["search", str(reference), str(guide_table), "--engine", engine]
            ) == 0

    def test_search_unknown_engine_errors(self, reference, guide_table, capsys):
        code = main(["search", str(reference), str(guide_table), "--engine", "nope"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSearchWorkers:
    def _hit_lines(self, capsys):
        return sorted(capsys.readouterr().out.splitlines())

    def test_workers_matches_serial_output(self, reference, guide_table, capsys):
        assert main(["search", str(reference), str(guide_table)]) == 0
        serial = self._hit_lines(capsys)
        assert (
            main(["search", str(reference), str(guide_table), "--workers", "2"]) == 0
        )
        assert self._hit_lines(capsys) == serial

    def test_workers_one_takes_serial_sharded_path(self, reference, guide_table, capsys):
        code = main(["search", str(reference), str(guide_table), "--workers", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert "sharded search (1 worker(s), serial)" in captured.err
        for line in captured.out.splitlines():
            assert len(line.split("\t")) == 6

    def test_workers_with_chunk_length(self, reference, guide_table, capsys):
        code = main(
            [
                "search",
                str(reference),
                str(guide_table),
                "--workers",
                "2",
                "--chunk-length",
                "8192",
            ]
        )
        assert code == 0
        assert "pooled" in capsys.readouterr().err

    def test_invalid_workers_exits_with_usage_error(self, reference, guide_table, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", str(reference), str(guide_table), "--workers", "0"])
        assert excinfo.value.code == 2

    def test_chunk_length_without_workers_exits_2(self, reference, guide_table, capsys):
        # Only --workers reads the chunk length; a lone --chunk-length
        # must not be silently ignored.
        code = main(
            ["search", str(reference), str(guide_table), "--chunk-length", "10"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --chunk-length needs --workers (it sizes the shards)\n"

    def test_shard_timeout_without_workers_exits_2(
        self, reference, guide_table, capsys
    ):
        # Only --workers runs shards; a lone --shard-timeout must not be
        # silently ignored by the engine path.
        code = main(
            ["search", str(reference), str(guide_table), "--shard-timeout", "0.001"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: --shard-timeout needs --workers (it bounds a shard attempt)\n"
        )


class TestBadInputs:
    """Exit codes and stderr for malformed invocations, pinned."""

    def test_missing_reference_exits_2(self, guide_table, tmp_path, capsys):
        code = main(["search", str(tmp_path / "absent.fa"), str(guide_table)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    def test_malformed_fasta_exits_2(self, guide_table, tmp_path, capsys):
        bad = tmp_path / "garbage.fa"
        bad.write_text("this is not\na fasta file\n")
        code = main(["search", str(bad), str(guide_table)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_guide_table_exits_2(self, reference, tmp_path, capsys):
        code = main(["search", str(reference), str(tmp_path / "absent.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_stats_json_exits_2(self, reference, guide_table, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "stats.json"
        code = main(
            ["search", str(reference), str(guide_table), "--stats-json", str(target)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestStatsJson:
    def _run(self, reference, guide_table, tmp_path, *extra):
        path = tmp_path / "stats.json"
        argv = [
            "search",
            str(reference),
            str(guide_table),
            "--stats-json",
            str(path),
            *extra,
        ]
        assert main(argv) == 0
        return json.loads(path.read_text()), path

    def test_engine_mode_payload(self, reference, guide_table, tmp_path, capsys):
        payload, _ = self._run(reference, guide_table, tmp_path)
        hit_lines = capsys.readouterr().out.splitlines()
        assert payload["mode"] == "engine"
        assert payload["engine"] == "hyperscan"
        assert payload["num_hits"] == len(hit_lines)
        assert payload["num_guides"] == 2
        assert payload["budget"] == {"mismatches": 3, "rna_bulges": 0, "dna_bulges": 0}
        run = payload["engine_runs"][0]
        assert run["sequence"] == "chrCli"
        assert run["stats"]["obs"]["counters"]["kernel.positions_scanned"] == 30_000
        assert payload["report_events_per_mbp"] >= 0.0

    def test_sharded_mode_payload(self, reference, guide_table, tmp_path, capsys):
        payload, _ = self._run(
            reference, guide_table, tmp_path,
            "--workers", "2", "--chunk-length", "8192", "--shard-timeout", "30",
        )
        capsys.readouterr()
        assert payload["mode"] == "sharded-pooled"
        per_sequence = payload["parallel"]
        assert len(per_sequence) == 1
        run = per_sequence[0]
        assert run["sequence"] == "chrCli"
        assert run["shards"], "per-shard rows must be present"
        for shard in run["shards"]:
            assert shard["seconds"] >= 0.0
            assert shard["attempts"] >= 1
        ft = run["fault_tolerance"]
        assert ft["shard_timeout"] == 30.0
        assert ft["retries"] == 0
        assert ft["timeouts"] == 0

    def test_streaming_mode_payload(self, tmp_path):
        # Stats files from the deleted chunked-streaming search mode carry
        # mode "streaming"; loading one must fail by name, not read as an
        # engine run that measured nothing.
        path = tmp_path / "stats.json"
        payload = {
            "command": "search",
            "mode": "streaming",
            "num_hits": 3,
            "streaming": [{"sequence": "chrCli", "wall_seconds": 0.5}],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="unknown stats mode 'streaming'"):
            load_stats_json(path)

    def test_stats_json_to_stdout(self, reference, guide_table, tmp_path, capsys):
        out_path = tmp_path / "hits.bed"
        code = main(
            [
                "search",
                str(reference),
                str(guide_table),
                "--out",
                str(out_path),
                "--stats-json",
                "-",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "search"
        assert payload["num_hits"] == len(out_path.read_text().splitlines())

    def test_payload_loads_into_analysis_record(
        self, reference, guide_table, tmp_path, capsys
    ):
        payload, path = self._run(
            reference, guide_table, tmp_path, "--workers", "1"
        )
        capsys.readouterr()
        record = load_stats_json(path)
        assert record.tool == "hyperscan"
        assert record.num_hits == payload["num_hits"]
        assert record.genome_length == 30_000
        assert record.mismatches == 3
        assert record.extra["mode"] == "sharded-serial"
        assert record.extra["retries"] == 0
        assert record.measured_seconds > 0.0


class TestEvaluate:
    def test_evaluate_prints_tables(self, capsys):
        code = main(
            [
                "evaluate",
                "--guides",
                "2",
                "--functional-length",
                "60000",
                "--mismatches",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "casot" in out
        assert "Speedups" in out
        assert "vs cas-offinder" in out

    def test_evaluate_bulged_drops_cas_offinder(self, capsys):
        code = main(
            [
                "evaluate",
                "--guides",
                "2",
                "--functional-length",
                "60000",
                "--mismatches",
                "1",
                "--rna-bulges",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vs casot" in out
        assert "vs cas-offinder" not in out


class TestSynthesize:
    def test_synthesize_writes_fasta(self, tmp_path, capsys):
        out_path = tmp_path / "syn.fa"
        code = main(
            ["synthesize", "--length", "5000", "--seed", "3", "--out", str(out_path)]
        )
        assert code == 0
        from repro.genome.fasta import read_fasta

        records = read_fasta(out_path)
        assert len(records[0].sequence) == 5000

    def test_synthesize_deterministic(self, tmp_path):
        a, b = tmp_path / "a.fa", tmp_path / "b.fa"
        main(["synthesize", "--length", "2000", "--seed", "9", "--out", str(a)])
        main(["synthesize", "--length", "2000", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestDesignCli:
    @pytest.fixture()
    def region(self, tmp_path):
        from repro.genome.sequence import Sequence

        genome = random_genome(30_000, seed=71, name="chrCli")
        path = tmp_path / "region.fa"
        region = Sequence.from_text("region", genome.window(2_000, 400))
        write_fasta([region], path)
        return path

    def test_design_tsv_is_deterministic(self, region, reference, capsys):
        argv = ["design", str(region), "--genome", str(reference), "--mismatches", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        header, *rows = first.splitlines()
        assert header.startswith("#rank\tname\t")
        assert rows
        ranks = [int(row.split("\t")[0]) for row in rows]
        assert ranks == list(range(1, len(rows) + 1))

    def test_design_json_document(self, region, reference, tmp_path):
        out = tmp_path / "report.json"
        stats = tmp_path / "stats.json"
        code = main(
            [
                "design",
                str(region),
                "--genome",
                str(reference),
                "--nuclease",
                "NNGRRT",
                "--format",
                "json",
                "--out",
                str(out),
                "--stats-json",
                str(stats),
            ]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["pam"]["name"] == "NNGRRT"
        assert document["candidates"] == len(document["ranked"])
        assert document["genome_passes"] == 1
        payload = json.loads(stats.read_text())
        assert payload["command"] == "design"
        assert payload["num_candidates"] == document["candidates"]

    def test_design_empty_region_exits_1_with_dsg001(self, tmp_path, capsys):
        path = tmp_path / "tiny.fa"
        write_fasta([random_genome(8, seed=1, name="tiny")], path)
        assert main(["design", str(path)]) == 1
        assert "DSG001" in capsys.readouterr().err

    def test_design_bad_weights_exit_codes(self, region, tmp_path, capsys):
        weights = tmp_path / "weights.json"
        weights.write_text('{"gc_weight": 2.0}')
        assert main(["design", str(region), "--weights", str(weights)]) == 1
        assert "DSG002" in capsys.readouterr().err
        weights.write_text("{not json")
        assert main(["design", str(region), "--weights", str(weights)]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_design_capacity_preflight_exits_1(self, region, capsys):
        code = main(
            [
                "design",
                str(region),
                "--platform",
                "ap",
                "--capacity-stes",
                "4",
            ]
        )
        assert code == 1
        assert "DSG003" in capsys.readouterr().err

    def test_design_unknown_pam_exits_2(self, region, capsys):
        assert main(["design", str(region), "--pam", "XYZ!"]) == 2
        assert "error:" in capsys.readouterr().err
