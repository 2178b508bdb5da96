"""Unit tests for the plain-text reporting helpers."""

from __future__ import annotations

import json

from repro.bench.reporting import (
    format_followers_series,
    format_series,
    format_speedup_summary,
    format_table,
    write_bench_json,
)
from repro.bench.runner import ExperimentTable


def sample_table() -> ExperimentTable:
    return ExperimentTable(
        [
            {"dataset": "gnutella", "algorithm": "OLAK", "k": 2, "time_s": 8.0, "visited": 1000, "followers": 10, "followers_series": [5, 5]},
            {"dataset": "gnutella", "algorithm": "IncAVT", "k": 2, "time_s": 0.5, "visited": 50, "followers": 9, "followers_series": [5, 4]},
            {"dataset": "gnutella", "algorithm": "OLAK", "k": 3, "time_s": 9.0, "visited": 1200, "followers": 12, "followers_series": [6, 6]},
            {"dataset": "gnutella", "algorithm": "IncAVT", "k": 3, "time_s": 0.6, "visited": 60, "followers": 11, "followers_series": [6, 5]},
            {"dataset": "eu_core", "algorithm": "OLAK", "k": 2, "time_s": 2.0, "visited": 500, "followers": 4, "followers_series": [2, 2]},
            {"dataset": "eu_core", "algorithm": "IncAVT", "k": 2, "time_s": 1.0, "visited": 100, "followers": 4, "followers_series": [2, 2]},
        ]
    )


class TestFormatTable:
    def test_renders_header_and_rows(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "22" in lines[3]

    def test_explicit_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_empty_rows(self):
        assert format_table([]) == "(no rows)"

    def test_missing_cells_render_blank(self):
        text = format_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text


class TestFormatSeries:
    def test_one_block_per_dataset_one_line_per_algorithm(self):
        text = format_series(sample_table(), x="k", y="time_s", title="Figure X")
        assert "Figure X" in text
        assert "[gnutella]" in text and "[eu_core]" in text
        assert text.count("OLAK") == 2
        assert text.count("IncAVT") == 2
        assert "2=8.000" in text  # OLAK at k=2 on gnutella

    def test_followers_series_block(self):
        text = format_followers_series(sample_table(), title="Case study")
        assert "Case study" in text
        assert "5 5" in text and "5 4" in text

    def test_speedup_summary_reports_ratio(self):
        text = format_speedup_summary(sample_table(), baseline="OLAK", metric="time_s")
        assert "speed-up vs OLAK" in text
        assert "[gnutella]" in text
        # OLAK total 17s vs IncAVT total 1.1s on gnutella => ~15x
        assert "15." in text or "16." in text

    def test_speedup_summary_skips_missing_baseline(self):
        table = ExperimentTable([{"dataset": "x", "algorithm": "IncAVT", "time_s": 1.0}])
        text = format_speedup_summary(table, baseline="OLAK")
        assert "[x]" not in text


class TestWriteBenchJson:
    def test_record_carries_execution_block(self, tmp_path):
        path = tmp_path / "BENCH_test.json"
        write_bench_json(path, "unit", {"value": 1}, backend="numpy")
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["benchmark"] == "unit"
        assert record["value"] == 1
        assert record["execution"] == {"backend": "numpy"}
        assert "git_sha" in record["environment"]

    def test_single_process_defaults(self, tmp_path):
        path = tmp_path / "BENCH_default.json"
        write_bench_json(path, "unit", {})
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["execution"] == {"backend": "auto"}
