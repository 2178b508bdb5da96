"""Tests for :mod:`repro.obs` — tracing, the metrics registry, exporters.

Covers the no-op disabled path, span nesting/parentage, sinks and the
bounded buffer, the unified snapshot schema across the stats surfaces, the
Prometheus/JSONL exporters, and the
acceptance-criterion reconciliation: a traced ``serve-sim`` run's span
counts and durations must agree with the engine's counters.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import pickle

import pytest

from repro.anchored.result import SolverStats
from repro.cli import main
from repro.engine.stats import EngineStats
from repro.obs import (
    JsonLinesSpanSink,
    MetricsRegistry,
    Tracer,
    global_registry,
    read_spans_jsonl,
    to_prometheus,
    tracer,
    write_metrics,
    write_spans_jsonl,
)


@pytest.fixture
def traced():
    """Enable tracing for one test, with clean buffers before and after."""
    previous = tracer.set_enabled(True)
    tracer.drain()
    yield
    tracer.drain()
    tracer.set_enabled(previous)


@pytest.fixture
def untraced():
    previous = tracer.set_enabled(False)
    yield
    tracer.set_enabled(previous)


class TestDisabledPath:
    def test_span_returns_shared_noop_singleton(self, untraced):
        first = tracer.span("engine.query", k=3, budget=5)
        second = tracer.span("something.else")
        assert first is second  # no allocation on the disabled path

    def test_noop_span_records_nothing(self, untraced):
        tracer.drain()
        with tracer.span("engine.query", k=3) as span:
            span.set(outcome="hit")
        assert tracer.drain() == []

    def test_set_enabled_returns_previous_state(self):
        previous = tracer.set_enabled(True)
        try:
            assert tracer.is_enabled()
            assert tracer.set_enabled(previous) is True
        finally:
            tracer.set_enabled(previous)
        assert tracer.is_enabled() is previous


class TestSpans:
    def test_nesting_parentage_and_attrs(self, traced):
        with tracer.span("outer", stage="test") as outer:
            with tracer.span("inner", k=3) as inner:
                inner.set(visited=7)
        spans = tracer.drain()
        assert [entry["name"] for entry in spans] == ["inner", "outer"]
        inner_dict, outer_dict = spans
        assert outer_dict["parent_id"] is None
        assert outer_dict["trace_id"] == outer_dict["span_id"]
        assert inner_dict["parent_id"] == outer_dict["span_id"]
        assert inner_dict["trace_id"] == outer_dict["trace_id"]
        assert inner_dict["attrs"] == {"k": 3, "visited": 7}
        assert outer_dict["attrs"] == {"stage": "test"}
        assert inner_dict["pid"] == os.getpid()
        assert inner_dict["duration"] >= 0.0
        assert outer_dict["duration"] >= inner_dict["duration"]

    def test_span_ids_are_pid_prefixed_and_unique(self, traced):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        spans = tracer.drain()
        ids = {entry["span_id"] for entry in spans}
        assert len(ids) == 2
        prefix = f"{os.getpid():x}-"
        assert all(span_id.startswith(prefix) for span_id in ids)

    def test_exception_tags_error_attribute(self, traced):
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("expected")
        (span,) = tracer.drain()
        assert span["attrs"]["error"] == "ValueError"

    def test_current_span_tracks_innermost(self, traced):
        assert tracer.current_span() is None
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
            assert tracer.current_span() is outer
        assert tracer.current_span() is None

    def test_sinks_receive_finished_spans(self, traced):
        collected = []
        tracer.add_sink(collected.append)
        try:
            with tracer.span("observed", k=1):
                pass
        finally:
            tracer.remove_sink(collected.append)
        with tracer.span("unobserved"):
            pass
        assert [entry["name"] for entry in collected] == ["observed"]

    def test_buffer_cap_drops_and_counts(self, traced):
        dropped = global_registry().counter("obs.spans_dropped")
        before = dropped.value
        private = Tracer(max_buffered=2)
        for index in range(3):
            with private.span("overflow", index=index):
                pass
        assert len(private.drain()) == 2
        assert dropped.value == before + 1

    def test_buffer_overflow_warns_once_until_drained(self, traced, caplog):
        private = Tracer(max_buffered=1)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            for index in range(4):
                with private.span("overflow", index=index):
                    pass
        warnings = [
            record
            for record in caplog.records
            if "span buffer full" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert "max_buffered=1" in warnings[0].getMessage()

        # drain() re-arms the warning for the next overflow
        private.drain()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            for index in range(3):
                with private.span("overflow-again", index=index):
                    pass
        assert sum(
            "span buffer full" in record.getMessage() for record in caplog.records
        ) == 1


class TestMetricsRegistry:
    def test_counter_get_or_create_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.queries")
        counter.inc()
        counter.inc(2)
        assert registry.counter("engine.queries") is counter
        assert counter.value == 3

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        plain = registry.counter("shard.messages")
        labelled = registry.counter("shard.messages", shard="1")
        assert plain is not labelled
        labelled.inc(5)
        assert plain.value == 0
        assert registry.get("shard.messages", shard="1").value == 5

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries")
        with pytest.raises(TypeError):
            registry.gauge("engine.queries")
        with pytest.raises(TypeError):
            registry.histogram("engine.queries")

    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries").inc(4)
        registry.gauge("engine.cache_size").set(17)
        registry.histogram("engine.latency.hit").observe(0.002)
        snapshot = registry.snapshot()
        assert {entry["name"] for entry in snapshot} == {
            "engine.queries",
            "engine.cache_size",
            "engine.latency.hit",
        }
        for entry in snapshot:
            assert set(entry) == {"name", "type", "value", "labels"}
        by_name = {entry["name"]: entry for entry in snapshot}
        assert by_name["engine.queries"]["type"] == "counter"
        assert by_name["engine.cache_size"]["type"] == "gauge"
        assert by_name["engine.latency.hit"]["type"] == "histogram"
        assert by_name["engine.latency.hit"]["value"]["count"] == 1
        json.dumps(snapshot)  # schema is JSON-serialisable as-is

    def test_snapshot_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries")
        registry.counter("solver.iterations")
        names = {entry["name"] for entry in registry.snapshot(prefix="engine.")}
        assert names == {"engine.queries"}

    def test_restore_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries").inc(7)
        registry.gauge("engine.cache_size").set(3)
        histogram = registry.histogram("solver.commit_seconds")
        for value in (0.001, 0.004, 0.1):
            histogram.observe(value)
        restored = MetricsRegistry()
        restored.restore(json.loads(registry.to_json()))
        assert restored.snapshot() == registry.snapshot()

    def test_histogram_bucket_quantile_bounds(self):
        histogram = MetricsRegistry().histogram("latency")
        for _ in range(300):
            histogram.observe(0.01)
        # The quantile is the containing bucket's upper bound: at most one
        # growth factor above the true value, never below it.
        estimate = histogram.quantile(0.99)
        assert 0.01 <= estimate <= 0.01 * math.sqrt(2.0) * 1.0001
        assert histogram.count == 300
        assert histogram.mean == pytest.approx(0.01)
        assert histogram.min == histogram.max == 0.01


class TestExporters:
    def test_jsonl_sink_round_trip(self, traced, tmp_path):
        path = tmp_path / "spans.jsonl"
        sink = JsonLinesSpanSink(path)
        tracer.add_sink(sink)
        try:
            with tracer.span("outer"):
                with tracer.span("inner", k=2):
                    pass
        finally:
            tracer.remove_sink(sink)
            sink.close()
        assert sink.spans_written == 2
        loaded = read_spans_jsonl(path)
        assert [entry["name"] for entry in loaded] == ["inner", "outer"]
        assert loaded == tracer.drain()

    def test_write_spans_jsonl(self, traced, tmp_path):
        with tracer.span("solo"):
            pass
        spans = tracer.drain()
        path = tmp_path / "drained.jsonl"
        assert write_spans_jsonl(spans, path) == 1
        assert read_spans_jsonl(path) == spans

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries").inc(3)
        registry.gauge("engine.cache_size").set(9)
        registry.counter("shard.messages", shard="2").inc(4)
        histogram = registry.histogram("engine.latency.hit")
        histogram.observe(0.001)
        histogram.observe(0.002)
        text = to_prometheus(registry)
        assert "# TYPE repro_engine_queries counter" in text
        assert "repro_engine_queries 3" in text
        assert "# TYPE repro_engine_cache_size gauge" in text
        assert 'repro_shard_messages{shard="2"} 4' in text
        assert "# TYPE repro_engine_latency_hit histogram" in text
        assert 'repro_engine_latency_hit_bucket{le="+Inf"} 2' in text
        assert "repro_engine_latency_hit_count 2" in text
        assert "repro_engine_latency_hit_sum" in text

    def test_write_metrics_format_by_extension(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("engine.queries").inc(2)
        json_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        assert write_metrics(registry, json_path) == "json"
        assert write_metrics(registry, prom_path) == "prometheus"
        loaded = json.loads(json_path.read_text(encoding="utf-8"))
        assert loaded == registry.snapshot()
        assert "repro_engine_queries 2" in prom_path.read_text(encoding="utf-8")


class TestUnifiedSchema:
    """``EngineStats`` emits the registry's ``{name, type, value, labels}``
    rows on export; ``SolverStats`` is plain data."""

    @staticmethod
    def _assert_schema(snapshot, prefix):
        assert snapshot, "empty snapshot"
        for entry in snapshot:
            assert set(entry) == {"name", "type", "value", "labels"}
            assert entry["name"].startswith(prefix)

    def test_engine_stats_snapshot_schema_and_round_trip(self):
        stats = EngineStats()
        stats.queries += 3
        stats.cache_hits += 1
        stats.observe_latency("hit", 0.002)
        snapshot = stats.snapshot()
        self._assert_schema(snapshot, "engine.")
        restored = EngineStats.from_snapshot(snapshot)
        assert restored == stats
        assert restored.queries == 3
        assert restored.latency_histogram("hit").count == 1

    def test_solver_stats_snapshot_schema_and_pickle(self):
        # Its snapshot is its dataclass fields, and it pickles as one.
        stats = SolverStats(candidates_evaluated=10, iterations=2)
        stats.commit_seconds.append(0.004)
        stats.commit_seconds.append(0.001)
        assert dataclasses.is_dataclass(SolverStats)
        assert dataclasses.asdict(stats) == {
            "candidates_evaluated": 10,
            "visited_vertices": 0,
            "runtime_seconds": 0.0,
            "iterations": 2,
            "maintenance_visited": 0,
            "candidates_recomputed": 0,
            "cache_hits": 0,
            "commit_seconds": [0.004, 0.001],
        }
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert type(clone.commit_seconds) is list
        assert clone.commit_seconds == [0.004, 0.001]
        assert clone != SolverStats(candidates_evaluated=10, iterations=2)


def test_no_object_builds_a_registry_it_does_not_export(monkeypatch, tmp_path):
    """Solves, IncAVT tracking and every engine operation run while no
    ``MetricsRegistry`` can be built: the stats are plain attributes, and
    only the process-wide registry (built at import) holds metric objects."""
    from repro.anchored.greedy import GreedyAnchoredKCore
    from repro.anchored.olak import OLAKAnchoredKCore
    from repro.anchored.rcm import RCMAnchoredKCore
    from repro.avt.incremental import IncAVTTracker
    from repro.avt.problem import AVTProblem
    from repro.engine import StreamingAVTEngine
    from repro.graph.datasets import toy_example_evolving_graph
    from repro.graph.generators import chung_lu_graph

    def refuse(self):
        raise AssertionError("a MetricsRegistry was built")

    monkeypatch.setattr(MetricsRegistry, "__init__", refuse)
    with pytest.raises(AssertionError):
        MetricsRegistry()

    graph = chung_lu_graph(80, 240, skew=1.2, seed=5)
    for solver in (GreedyAnchoredKCore, OLAKAnchoredKCore, RCMAnchoredKCore):
        result = solver(graph, 3, 2).select()
        assert not hasattr(result.stats, "registry")
        assert dataclasses.is_dataclass(result.stats)
    tracked = IncAVTTracker().track(
        AVTProblem(evolving_graph=toy_example_evolving_graph(), k=3, budget=2)
    )
    assert len(tracked.snapshots) == 2

    engine = StreamingAVTEngine(graph, batch_size=None)
    assert not hasattr(engine.stats, "registry")
    engine.query(3, 2)
    low = sorted(vertex for vertex, core in engine.core_numbers().items() if core <= 2)
    engine.ingest_insert(low[0], low[1])
    engine.ingest_insert(low[2], low[3])
    engine.flush()
    engine.query(3, 2)
    engine.query(3, 2)
    stats = engine.stats
    assert (stats.cold_solves, stats.warm_solves, stats.cache_hits) == (1, 1, 1)
    engine.checkpoint(tmp_path / "ck")
    restored = StreamingAVTEngine.restore(tmp_path / "ck")
    assert restored.stats.queries == 3
    assert restored.query(3, 2) == engine.query(3, 2)


class TestServeSimReconciliation:
    """Acceptance criterion: trace spans reconcile with the engine counters."""

    def test_traced_serve_sim_reconciles(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        enabled_before = tracer.is_enabled()
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
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        tracer.drain()  # the CLI restores the flag; drop our copy of its spans
        output = capsys.readouterr().out
        assert code == 0
        assert tracer.is_enabled() is enabled_before  # CLI restores the flag
        assert "trace written to" in output
        assert "metrics snapshot (json) written to" in output

        spans = read_spans_jsonl(trace_path)
        assert spans, "traced run produced no spans"
        metric_values = {
            entry["name"]: entry["value"]
            for entry in json.loads(metrics_path.read_text(encoding="utf-8"))
            if not entry["labels"]
        }

        query_spans = [entry for entry in spans if entry["name"] == "engine.query"]
        assert len(query_spans) == metric_values["engine.queries"]
        outcomes = {"hit": 0, "warm": 0, "cold": 0}
        for entry in query_spans:
            outcomes[entry["attrs"]["outcome"]] += 1
        assert outcomes["hit"] == metric_values["engine.cache_hits"]
        assert outcomes["warm"] == metric_values["engine.warm_solves"]
        assert outcomes["cold"] == metric_values["engine.cold_solves"]

        # Every query span wraps exactly one latency observation, so the
        # summed span durations must cover the summed latency counters.
        span_seconds = sum(entry["duration"] for entry in query_spans)
        counter_seconds = (
            metric_values["engine.hit_seconds"]
            + metric_values["engine.warm_seconds"]
            + metric_values["engine.cold_seconds"]
        )
        assert span_seconds >= counter_seconds - 1e-9

        # Child spans are parented inside the trace: every solve span hangs
        # off a query span.
        span_names = {entry["span_id"]: entry["name"] for entry in spans}
        solve_spans = [
            entry for entry in spans if entry["name"].startswith("engine.solve.")
        ]
        assert solve_spans
        for entry in solve_spans:
            assert span_names.get(entry["parent_id"]) == "engine.query"
