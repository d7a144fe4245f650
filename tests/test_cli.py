"""Tests for the mixpbench command-line interface."""

import json

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "tridiag"])
        assert args.algorithm == "DD"
        assert args.threshold is None

    @pytest.mark.parametrize("command", [
        ["search", "tridiag"], ["run", "configs/kmeans.yaml"],
        ["grid", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-8"],
        ["sensitivity", "eos"], ["submit", "--programs", "eos", "--algorithms", "DD", "--thresholds", "1e-8"],
    ])
    def test_removed_no_fuse_flag_rejected(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--no-fuse"])
        assert "unrecognized arguments: --no-fuse" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "banded-lin-eq" in out
        assert "lavamd" in out
        assert "application" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "hydro-1d"]) == 0
        out = capsys.readouterr().out
        assert "TV=6 TC=2" in out
        assert "halo.u" in out

    def test_search(self, capsys, data_env):
        assert main(["search", "tridiag", "--algorithm", "CB"]) == 0
        out = capsys.readouterr().out
        assert "tridiag / combinational" in out
        assert "evaluated configurations" in out
        assert "lowered variables" in out

    def test_search_with_threshold(self, capsys, data_env):
        assert main([
            "search", "innerprod", "--algorithm", "GA", "--threshold", "1e-3",
        ]) == 0
        out = capsys.readouterr().out
        assert "@ 0.001" in out

    def test_run_config(self, tmp_path, capsys, data_env):
        config = tmp_path / "c.yaml"
        config.write_text(
            "tridiag:\n"
            "  threshold: 1.0e-8\n"
            "  analysis:\n"
            "    fs:\n"
            "      name: floatSmith\n"
            "      extra_args: {algorithm: DD}\n"
        )
        assert main(["run", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "delta-debugging" in out
        artifact = tmp_path / "out" / "tridiag" / "tridiag-delta-debugging.json"
        assert artifact.exists()
        assert json.loads(artifact.read_text())["program"] == "tridiag"

    def test_grid_unknown_algorithm_fails_its_job_only(self, tmp_path, capsys, data_env):
        out_dir = tmp_path / "out"
        assert main([
            "grid", "--programs", "eos", "--algorithms", "DD", "XX",
            "--thresholds", "1e-6", "--max-evaluations", "12", "--no-cache",
            "--output-dir", str(out_dir), "--run-id", "r",
        ]) == 1
        assert "eos/XX@1e-06: MixPBenchError" in capsys.readouterr().out
        rows = json.loads((out_dir / "runs" / "r" / "results.json").read_text())
        assert [row["outcome"] is not None for row in rows] == [True, False]


class TestProfileCommand:
    def test_profile_double(self, capsys, data_env):
        assert main(["profile", "hydro-1d"]) == 0
        out = capsys.readouterr().out
        assert "modeled runtime" in out
        assert "cheap/float64" in out
        assert "time breakdown" in out

    def test_profile_single_changes_buckets(self, capsys, data_env):
        assert main(["profile", "hydro-1d", "--precision", "single"]) == 0
        out = capsys.readouterr().out
        assert "float32" in out

    def test_profile_shows_io_for_file_driven_apps(self, capsys, data_env):
        assert main(["profile", "kmeans"]) == 0
        out = capsys.readouterr().out
        assert "file I/O" in out
