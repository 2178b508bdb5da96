"""repro.obs — hierarchical tracing, unified metrics, pluggable exporters.

The observability layer threaded through every execution layer of the repo:

=================  ==========================================================
piece              role
=================  ==========================================================
``tracer``         Hierarchical spans with a context-manager API and a
                   near-zero-overhead no-op path while disabled.
``MetricsRegistry``  Counters / gauges / log-bucketed histograms behind one
                   ``{name, type, value, labels}`` snapshot schema (the
                   tracer's ``obs.*`` counters); the stats objects are plain
                   data that emit the same rows on export, and histogram
                   buckets keep trace-id exemplars.
``exporters``      JSON-lines span sink, Prometheus text exposition, and
                   snapshot writers for the CLI and benches.
``analyze``        Trace analytics over finished spans: span-tree
                   reconstruction, Dapper-style critical-path extraction,
                   per-name self-time flamegraph aggregation
                   (collapsed-stack output), and two-trace latency diffs.
=================  ==========================================================

Enable tracing programmatically (``tracer.set_enabled(True)``), per run
(``avt-bench serve-sim --trace-out trace.jsonl``), or process-wide via the
``REPRO_TRACE=1`` environment variable.  Analyze a trace offline with
``avt-bench trace {tree,critical-path,flame} trace.jsonl``.
"""

from repro.obs import tracer
from repro.obs.analyze import (
    CriticalStep,
    SpanNode,
    build_span_trees,
    critical_path,
    critical_path_by_name,
    diff_traces,
    flame_stacks,
    render_collapsed,
    render_tree,
    self_time_by_name,
)
from repro.obs.exporters import (
    JsonLinesSpanSink,
    read_spans_jsonl,
    to_prometheus,
    write_metrics,
    write_spans_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.tracer import Span, Tracer

__all__ = [
    "tracer",
    "Span",
    "Tracer",
    "SpanNode",
    "CriticalStep",
    "build_span_trees",
    "critical_path",
    "critical_path_by_name",
    "self_time_by_name",
    "flame_stacks",
    "render_collapsed",
    "render_tree",
    "diff_traces",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "JsonLinesSpanSink",
    "read_spans_jsonl",
    "write_spans_jsonl",
    "to_prometheus",
    "write_metrics",
]
