"""Tests for the avt-bench command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestListing:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig03" in output and "table4" in output and "summary" in output

    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out


class TestDatasets:
    def test_datasets_table(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        for name in ("email_enron", "gnutella", "deezer", "eu_core", "mathoverflow", "college_msg"):
            assert name in output


class TestSummary:
    def test_summary_small_scale(self, capsys):
        code = main(
            [
                "summary",
                "--dataset",
                "gnutella",
                "--scale",
                "0.12",
                "--snapshots",
                "3",
                "--budget",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "OLAK" in output and "IncAVT" in output
        assert "speed-up" in output


class TestBackends:
    def test_backends_table(self, capsys):
        assert main(["backends"]) == 0
        output = capsys.readouterr().out
        for name in ("dict", "numpy"):
            assert name in output
        assert "compact" not in output
        assert "reason" in output  # why an unavailable tier is being skipped

    def test_backends_table_names_the_disable_switch(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert main(["backends"]) == 0
        assert "disabled via REPRO_DISABLE_NUMPY" in capsys.readouterr().out

    def test_backends_listed(self, capsys):
        assert main(["--list"]) == 0
        assert "backends" in capsys.readouterr().out


class TestServeSim:
    def test_serve_sim_with_explicit_backend(self, capsys):
        code = main(
            [
                "serve-sim",
                "--dataset",
                "gnutella",
                "--scale",
                "0.12",
                "--snapshots",
                "3",
                "--budget",
                "2",
                "--backend",
                "dict",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "backend=dict" in output

    def test_unknown_backend_flag_rejected(self, capsys):
        assert main(["serve-sim", "--dataset", "gnutella", "--backend", "warp"]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_serve_sim_replays_and_hits_cache(self, capsys, tmp_path):
        checkpoint = tmp_path / "engine.ckpt"
        code = main(
            [
                "serve-sim",
                "--dataset",
                "gnutella",
                "--scale",
                "0.15",
                "--snapshots",
                "4",
                "--budget",
                "3",
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "serve-sim on gnutella" in output
        assert "hit rate" in output
        assert "restore verified: ok" in output
        assert checkpoint.exists()
        # at least one cache hit is part of the serve-sim contract
        hits = int(output.split("hits=")[1].split()[0])
        assert hits >= 1

    def test_serve_sim_listed(self, capsys):
        assert main(["--list"]) == 0
        assert "serve-sim" in capsys.readouterr().out


class TestOutputPaths:
    """An output path in a missing directory fails before any work runs."""

    def test_csv_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AVT_BENCH_SCALE", "0.12")
        path = tmp_path / "missing" / "x.csv"
        assert main(["fig03", "--csv", str(path)]) == 2
        captured = capsys.readouterr()
        assert "Running" not in captured.out
        assert captured.err == (
            f"error: --csv {path}: directory {path.parent} does not exist\n"
        )

    @pytest.mark.parametrize("flag", ["--metrics-out", "--trace-out", "--checkpoint"])
    def test_serve_sim_output_in_missing_directory(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "out"
        argv = ["serve-sim", "--scale", "0.12", "--snapshots", "3", flag, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "serve-sim on" not in captured.out
        assert captured.err == (
            f"error: {flag} {path}: directory {path.parent} does not exist\n"
        )


class TestExperiments:
    def test_unknown_experiment_returns_error(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_table4_with_csv_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AVT_BENCH_SCALE", "0.12")
        csv_path = tmp_path / "table4.csv"
        assert main(["table4", "--csv", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert "Table 4" in output
        assert csv_path.exists()
        assert "algorithm" in csv_path.read_text(encoding="utf-8")
