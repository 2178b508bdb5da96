"""Observability: trace an engine query and read the metrics registry.

Every layer of the library is instrumented with :mod:`repro.obs` spans —
engine queries, warm/cold solves, per-round greedy evaluate/commit, kernel
calls.  Tracing is off by default (each instrumented site costs one flag
check); this example turns it on for a short streaming session and then

1. prints the span tree of the final query — who called what, how long each
   level took, and the attributes the code attached (outcome, candidate
   counts, touched sets);
2. extracts the critical path of the slowest query with
   :func:`repro.obs.critical_path` — the chain of spans that actually gated
   the latency, whose step durations sum to the root's wall time — and the
   per-stack self-time flamegraph aggregation (collapsed-stack format, ready
   for ``flamegraph.pl`` / speedscope);
3. prints the engine's unified metrics snapshot and a derived latency
   percentile, the same ``{name, type, value, labels}`` records that
   ``avt-bench serve-sim --metrics-out`` exports and every ``BENCH_*.json``
   embeds.

The same analyses run offline over an ``avt-bench serve-sim --trace-out``
file via ``avt-bench trace {tree,critical-path,flame}``.

Run with::

    python examples/traced_query.py
"""

from __future__ import annotations

from repro import StreamingAVTEngine, load_dataset
from repro.obs import (
    build_span_trees,
    critical_path,
    flame_stacks,
    render_collapsed,
    tracer,
)

K = 3  # engagement degree constraint
BUDGET = 3  # anchors we can afford per answer


def print_span_tree(spans) -> None:
    """Render drained span dicts as an indented tree (children under parents)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(span)

    def render(span, depth):
        attrs = " ".join(f"{key}={value}" for key, value in sorted(span["attrs"].items()))
        print(f"  {'  ' * depth}{span['name']}  {span['duration'] * 1e3:.3f}ms  {attrs}")
        for child in children.get(span["span_id"], []):
            render(child, depth + 1)

    for root in children.get(None, []):
        render(root, 0)


def main() -> None:
    evolving = load_dataset("gnutella", num_snapshots=4, scale=0.2)
    engine = StreamingAVTEngine(evolving.base)
    engine.query(K, BUDGET)  # cold solve, untraced warm-up
    for delta in evolving.deltas[:-1]:
        engine.ingest(delta)
        engine.query(K, BUDGET)

    # Trace the last delta's worth of work: a flush + warm solve, then a hit.
    engine.ingest(evolving.deltas[-1])
    previous = tracer.set_enabled(True)
    tracer.drain()
    try:
        answer = engine.query(K, BUDGET)  # flush buffered edges, warm refresh
        answer = engine.query(K, BUDGET)  # unchanged version: cache hit
    finally:
        spans = tracer.drain()
        tracer.set_enabled(previous)

    print(f"Traced {len(spans)} spans from two engine queries -> {answer.summary()}")
    print("span tree (duration, attributes):")
    print_span_tree(spans)

    # Critical path of the slowest query: the chain of spans that gated the
    # latency.  Step durations sum to the root's wall time by construction,
    # so nothing is hidden or double-counted.
    slowest = max(build_span_trees(spans), key=lambda root: root.duration)
    steps = critical_path(slowest)
    print()
    print(
        f"critical path through '{slowest.name}' "
        f"({slowest.duration * 1e3:.3f}ms wall):"
    )
    for step in steps:
        share = step.seconds / slowest.duration * 100 if slowest.duration else 0.0
        print(f"  {step.node.name:<28} {step.seconds * 1e3:8.3f}ms  {share:5.1f}%")
    covered = sum(step.seconds for step in steps)
    print(f"  steps sum to {covered * 1e3:.3f}ms of {slowest.duration * 1e3:.3f}ms")

    # Flamegraph aggregation: self time per span-name stack, in the standard
    # collapsed format ('a;b;c <microseconds>').
    print()
    print("flamegraph stacks (collapsed format, self time in us):")
    for line in render_collapsed(flame_stacks(spans)).splitlines():
        print(f"  {line}")

    print()
    print("engine metrics snapshot (unified schema):")
    for entry in engine.stats.snapshot():
        if entry["type"] == "counter" and entry["value"]:
            print(f"  {entry['name']}: {entry['value']}")
    hit_latency = engine.stats.latency_histogram("hit")
    percentiles = hit_latency.percentiles()
    print(
        f"  engine.latency.hit: count={hit_latency.count} "
        f"p50={percentiles['p50'] * 1e3:.3f}ms p99={percentiles['p99'] * 1e3:.3f}ms"
    )
    print(
        "the same snapshot ships via 'avt-bench serve-sim --trace-out/--metrics-out' "
        "and inside every BENCH_*.json"
    )


if __name__ == "__main__":
    main()
