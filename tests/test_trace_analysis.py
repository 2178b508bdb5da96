"""Tests for the trace analyzers (:mod:`repro.obs.analyze`), histogram
exemplars and the ``avt-bench trace`` CLI.

Includes the acceptance criterion: the critical path of a serve-sim
``--trace-out`` artifact sums to within 10% of the root span's wall time.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.engine import StreamingAVTEngine
from repro.engine.stats import EngineStats
from repro.errors import ParameterError
from repro.graph.static import Graph
from repro.obs import (
    MetricsRegistry,
    build_span_trees,
    critical_path,
    critical_path_by_name,
    diff_traces,
    flame_stacks,
    read_spans_jsonl,
    render_collapsed,
    render_tree,
    self_time_by_name,
    tracer,
)


@pytest.fixture
def traced():
    previous = tracer.set_enabled(True)
    tracer.drain()
    yield
    tracer.drain()
    tracer.set_enabled(previous)


def _span(name, span_id, parent_id, start, duration, **attrs):
    """Synthetic span dict with exact, hand-chosen intervals."""
    return {
        "name": name,
        "span_id": span_id,
        "parent_id": parent_id,
        "trace_id": "t-1",
        "pid": 1,
        "start": start,
        "duration": duration,
        "attrs": attrs,
    }


def _busy(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(200))


class TestSpanTrees:
    def test_forest_reconstruction_and_ordering(self):
        spans = [
            _span("child.b", "s3", "s1", 6.0, 2.0),
            _span("root", "s1", None, 0.0, 10.0),
            _span("child.a", "s2", "s1", 1.0, 3.0),
            _span("other.root", "s9", "missing-parent", 20.0, 1.0),
        ]
        roots = build_span_trees(spans)
        assert [root.name for root in roots] == ["root", "other.root"]
        root = roots[0]
        assert [child.name for child in root.children] == ["child.a", "child.b"]
        assert root.children[0].parent is root
        assert root.end == 10.0
        assert [node.name for node in root.walk()] == ["root", "child.a", "child.b"]

    def test_self_time_clamps_for_concurrent_children(self):
        # Async fan-out: two children overlap, their durations sum past the
        # parent's wall time; self time must clamp at zero, not go negative.
        spans = [
            _span("wave", "w1", None, 0.0, 1.0),
            _span("op", "o1", "w1", 0.0, 0.9, shard=0),
            _span("op", "o2", "w1", 0.05, 0.9, shard=1),
        ]
        (root,) = build_span_trees(spans)
        assert root.self_time == 0.0
        totals = self_time_by_name(spans)
        assert totals["wave"]["self_seconds"] == 0.0
        assert totals["op"]["self_seconds"] == pytest.approx(1.8)


class TestCriticalPath:
    def test_sequential_children_and_gaps(self):
        # root [0,10]: a [1,4], b [5,9] -> path: root 1s, a 3s, root 1s, b 4s, root 1s
        spans = [
            _span("root", "s1", None, 0.0, 10.0),
            _span("a", "s2", "s1", 1.0, 3.0),
            _span("b", "s3", "s1", 5.0, 4.0),
        ]
        (root,) = build_span_trees(spans)
        steps = critical_path(root)
        assert [(step.node.name, step.seconds) for step in steps] == [
            ("root", 1.0),
            ("a", 3.0),
            ("root", 1.0),
            ("b", 4.0),
            ("root", 1.0),
        ]
        assert sum(step.seconds for step in steps) == pytest.approx(root.duration)
        by_name = critical_path_by_name(steps)
        assert by_name == {"root": 3.0, "a": 3.0, "b": 4.0}

    def test_concurrent_children_last_finisher_wins(self):
        # Two overlapping children: the straggler (later end) owns the
        # overlap; the early child only contributes its unshadowed prefix.
        spans = [
            _span("exchange", "e1", None, 0.0, 10.0),
            _span("fast", "f1", "e1", 0.0, 4.0),
            _span("slow", "f2", "e1", 1.0, 9.0),
        ]
        (root,) = build_span_trees(spans)
        steps = critical_path(root)
        assert [(step.node.name, step.seconds) for step in steps] == [
            ("fast", 1.0),
            ("slow", 9.0),
        ]
        assert sum(step.seconds for step in steps) == pytest.approx(10.0)

    def test_nested_recursion_and_full_coverage(self):
        spans = [
            _span("root", "r", None, 0.0, 8.0),
            _span("mid", "m", "r", 2.0, 5.0),
            _span("leaf", "l", "m", 3.0, 2.0),
        ]
        (root,) = build_span_trees(spans)
        steps = critical_path(root)
        assert sum(step.seconds for step in steps) == pytest.approx(8.0)
        names = [step.node.name for step in steps]
        assert names == ["root", "mid", "leaf", "mid", "root"]

    def test_real_trace_sums_to_root_wall(self, traced):
        with tracer.span("outer"):
            with tracer.span("first"):
                _busy(0.01)
            with tracer.span("second"):
                with tracer.span("inner"):
                    _busy(0.01)
        (root,) = build_span_trees(tracer.drain())
        steps = critical_path(root)
        total = sum(step.seconds for step in steps)
        assert total == pytest.approx(root.duration, rel=1e-3)


class TestFlamegraph:
    def test_collapsed_stack_output(self):
        spans = [
            _span("root", "s1", None, 0.0, 10.0),
            _span("a", "s2", "s1", 1.0, 3.0),
            _span("b", "s3", "s1", 5.0, 4.0),
            _span("a.inner", "s4", "s2", 1.5, 1.0),
        ]
        stacks = flame_stacks(spans)
        assert stacks == {
            "root": pytest.approx(3.0),
            "root;a": pytest.approx(2.0),
            "root;a;a.inner": pytest.approx(1.0),
            "root;b": pytest.approx(4.0),
        }
        collapsed = render_collapsed(stacks)
        lines = collapsed.splitlines()
        assert "root 3000000" in lines
        assert "root;a;a.inner 1000000" in lines
        # standard collapsed format: one "stack<space>integer" per line
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack and weight.isdigit()

    def test_render_tree_depth_limit(self):
        spans = [
            _span("root", "s1", None, 0.0, 1.0),
            _span("mid", "s2", "s1", 0.0, 0.5),
            _span("leaf", "s3", "s2", 0.0, 0.25),
        ]
        full = render_tree(build_span_trees(spans))
        assert "leaf" in full and "  mid" in full
        shallow = render_tree(build_span_trees(spans), max_depth=1)
        assert "leaf" not in shallow and "mid" in shallow


class TestDiff:
    def test_delta_attributed_per_name(self):
        before = [
            _span("root", "s1", None, 0.0, 10.0),
            _span("solve", "s2", "s1", 0.0, 6.0),
        ]
        after = [
            _span("root", "x1", None, 0.0, 15.0),
            _span("solve", "x2", "x1", 0.0, 12.0),
        ]
        report = diff_traces(before, after)
        by_name = {entry["name"]: entry for entry in report["by_name"]}
        assert by_name["solve"]["delta_seconds"] == pytest.approx(6.0)
        assert by_name["root"]["delta_seconds"] == pytest.approx(-1.0)
        assert report["delta_seconds"] == pytest.approx(5.0)
        # sorted by |delta|: solve moved most
        assert report["by_name"][0]["name"] == "solve"

    def test_empty_diff_raises(self):
        with pytest.raises(ParameterError):
            diff_traces([], [])


class TestServeSimCriticalPath:
    """Acceptance criterion: the CLI critical path on a serve-sim trace
    covers the root span's wall time to within 10%."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "serve.jsonl"
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
                "--trace-out",
                str(path),
            ]
        )
        tracer.drain()
        assert code == 0
        return path

    def test_critical_path_covers_root_wall(self, trace_path):
        spans = read_spans_jsonl(trace_path)
        queries = [
            root for root in build_span_trees(spans) if root.name == "engine.query"
        ]
        assert queries
        for root in queries:
            steps = critical_path(root)
            total = sum(step.seconds for step in steps)
            assert total == pytest.approx(root.duration, rel=0.10)

    def test_cli_critical_path_prints_covering_chain(self, trace_path, capsys):
        assert (
            main(["trace", "critical-path", str(trace_path), "--root", "engine.query"])
            == 0
        )
        output = capsys.readouterr().out
        assert "critical path through 'engine.query'" in output
        # "critical path covers Xms of Yms wall (Z%)" with Z within 10% of 100
        tail = output.strip().splitlines()[-1]
        pct = float(tail.rsplit("(", 1)[1].rstrip("%)"))
        assert 90.0 <= pct <= 110.0

    def test_cli_tree_flame_and_diff(self, trace_path, tmp_path, capsys):
        assert main(["trace", "tree", str(trace_path), "--top", "2", "--depth", "2"]) == 0
        assert "engine.query" in capsys.readouterr().out

        out_path = tmp_path / "collapsed.txt"
        assert main(["trace", "flame", str(trace_path), "--out", str(out_path)]) == 0
        collapsed = out_path.read_text(encoding="utf-8")
        assert any(
            line.startswith("engine.query") for line in collapsed.splitlines()
        )
        capsys.readouterr()

        assert main(["trace", "tree", str(trace_path), "--diff", str(trace_path)]) == 0
        diff_output = capsys.readouterr().out
        assert "latency delta by span name" in diff_output
        assert "(+0.000ms)" in diff_output

    def test_flame_out_in_missing_directory(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "missing" / "collapsed.txt"
        assert main(["trace", "flame", str(trace_path), "--out", str(out_path)]) == 2
        assert f"error: --out {out_path}" in capsys.readouterr().err

    def test_cli_errors_are_reported(self, tmp_path, capsys):
        assert main(["trace", "critical-path", str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trace", "critical-path", str(empty)]) == 2


class TestExemplars:
    def test_histogram_keeps_slowest_recent_per_bucket(self):
        histogram = MetricsRegistry().histogram("engine.latency.cold")
        histogram.observe(0.010, trace_id="trace-slowish")
        histogram.observe(0.012, trace_id="trace-slowest")
        histogram.observe(0.011, trace_id="trace-middling")
        histogram.observe(0.00001, trace_id="trace-fast")
        histogram.observe(0.5)  # no trace id: counted, no exemplar
        slow_bucket = histogram.bucket_index(0.012)
        fast_bucket = histogram.bucket_index(0.00001)
        assert histogram.exemplars[slow_bucket] == (0.012, "trace-slowest")
        assert histogram.exemplars[fast_bucket] == (0.00001, "trace-fast")
        assert histogram.bucket_index(0.5) not in histogram.exemplars

    def test_exemplars_serialise_and_restore(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("engine.latency.hit")
        histogram.observe(0.004, trace_id="t-99")
        snapshot = registry.snapshot()
        (entry,) = snapshot
        bucket = str(histogram.bucket_index(0.004))
        assert entry["value"]["exemplars"][bucket] == {
            "value": 0.004,
            "trace_id": "t-99",
        }
        json.dumps(snapshot)
        restored = MetricsRegistry()
        restored.restore(snapshot)
        assert restored.snapshot() == snapshot

    def test_engine_latency_exemplars_link_to_query_traces(self, traced):
        engine = StreamingAVTEngine(Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3)]))
        engine.query(2, 1)
        engine.query(2, 1)  # cache hit
        spans = tracer.drain()
        trace_ids = {
            entry["trace_id"] for entry in spans if entry["name"] == "engine.query"
        }
        for path in ("cold", "hit"):
            histogram = engine.stats.latency_histogram(path)
            assert histogram.exemplars, f"no exemplar on the {path} path"
            for _, trace_id in histogram.exemplars.values():
                assert trace_id in trace_ids

    def test_untraced_queries_record_no_exemplars(self):
        stats = EngineStats()
        stats.observe_latency("hit", 0.001)
        assert stats.latency_histogram("hit").exemplars == {}
