"""Observability overhead — the cost of tracing instrumentation, off and on.

Not a paper figure: this guards the tracing layer of :mod:`repro.obs`.  The
engine, the solvers and the kernels are permanently instrumented with
``tracer.span(...)`` call sites; when tracing is disabled each call must cost
one module-flag check plus a no-op context manager.  The benchmark measures

* the per-call cost of a disabled ``span()`` (microbenchmark against an
  empty loop),
* a full engine replay with tracing disabled (the production path), and
* the same replay with tracing enabled (spans buffered and drained), which
  also yields the exact span count of the workload.

The *disabled* overhead of the replay is then estimated as
``span_count * per_call_cost / replay_seconds`` — the fraction of the run
spent in no-op instrumentation.  The acceptance criterion is that this stays
at or below 5%; ``BENCH_obs.json`` records the margin
(``5.0 - overhead_pct``) as an enforced floor at 0 so a regression fails
both the pytest wrapper and the CI ``repro.bench.compare`` sweep.

``test_trace_analysis_bench`` guards the trace analyzers the same way in
``BENCH_trace.json``: the critical path extracted from a traced replay must
cover ≥90% of the root span's wall time (it covers ~100% by construction, so
the floor catches a broken tree/interval reconstruction).
"""

from __future__ import annotations

import time

from repro.bench.compare import floor_failures
from repro.bench.reporting import write_bench_json
from repro.bench.workloads import build_problem
from repro.engine import StreamingAVTEngine
from repro.obs import build_span_trees, critical_path, tracer

DATASET = "gnutella"
BUDGET = 4
MICRO_CALLS = 100_000
OVERHEAD_LIMIT_PCT = 5.0
CRITICAL_PATH_COVERAGE_FLOOR = 0.9


def _noop_span_cost_ns() -> float:
    """Per-call cost of a disabled ``tracer.span(...)`` in nanoseconds."""
    previous = tracer.set_enabled(False)
    try:
        started = time.perf_counter()
        for _ in range(MICRO_CALLS):
            with tracer.span("bench.noop", k=8, budget=4):
                pass
        span_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(MICRO_CALLS):
            pass
        loop_seconds = time.perf_counter() - started
    finally:
        tracer.set_enabled(previous)
    return max(span_seconds - loop_seconds, 0.0) / MICRO_CALLS * 1e9


def _replay(problem) -> float:
    """One full engine replay (ingest + warm/hit queries); returns seconds."""
    evolving = problem.evolving_graph
    engine = StreamingAVTEngine(evolving.base)
    started = time.perf_counter()
    engine.query(problem.k, problem.budget)
    for delta in evolving.deltas:
        engine.ingest(delta)
        engine.query(problem.k, problem.budget)
        engine.query(problem.k, problem.budget)
    return time.perf_counter() - started


def run_overhead(bench_profile):
    problem = build_problem(
        DATASET,
        budget=BUDGET,
        num_snapshots=bench_profile.num_snapshots,
        scale=bench_profile.scale,
        seed=bench_profile.seed,
    )

    per_call_ns = _noop_span_cost_ns()

    # Production path: tracing disabled.  Best of two runs tames JIT-free
    # Python's warm-up noise (dict caches, allocator).
    previous = tracer.set_enabled(False)
    try:
        disabled_seconds = min(_replay(problem), _replay(problem))
    finally:
        tracer.set_enabled(previous)

    # Enabled run: same workload with spans buffered; the drain yields the
    # exact number of span() call sites the replay crosses.
    previous = tracer.set_enabled(True)
    tracer.drain()
    try:
        enabled_seconds = _replay(problem)
    finally:
        spans = tracer.drain()
        tracer.set_enabled(previous)
    span_count = len(spans)

    overhead_pct = (span_count * per_call_ns * 1e-9) / max(disabled_seconds, 1e-9) * 100.0
    enabled_overhead_pct = (enabled_seconds / max(disabled_seconds, 1e-9) - 1.0) * 100.0

    payload = {
        "workload": {
            "dataset": DATASET,
            "k": problem.k,
            "budget": problem.budget,
            "num_snapshots": problem.num_snapshots,
            "scale": bench_profile.scale,
        },
        "noop_span_ns": per_call_ns,
        "span_count": span_count,
        "replay_seconds": {
            "disabled": disabled_seconds,
            "enabled": enabled_seconds,
        },
        "disabled_overhead_pct": overhead_pct,
        "enabled_overhead_pct": enabled_overhead_pct,
        "floors": {
            "obs_disabled_overhead_margin_pct": {
                "value": OVERHEAD_LIMIT_PCT - overhead_pct,
                "floor": 0.0,
                "enforced": True,
            },
        },
    }
    report = "\n".join(
        [
            f"Observability overhead on {DATASET} "
            f"(k={problem.k}, l={problem.budget}, T={problem.num_snapshots}, "
            f"scale={bench_profile.scale})",
            "",
            f"noop span() cost:        {per_call_ns:.0f} ns/call",
            f"spans per replay:        {span_count}",
            f"replay (tracing off):    {disabled_seconds * 1e3:.1f} ms",
            f"replay (tracing on):     {enabled_seconds * 1e3:.1f} ms "
            f"({enabled_overhead_pct:+.1f}%)",
            f"disabled overhead:       {overhead_pct:.3f}% of replay "
            f"(limit {OVERHEAD_LIMIT_PCT:.0f}%)",
        ]
    )
    return payload, report


def run_trace_analysis(bench_profile):
    """Critical-path coverage of a traced replay for BENCH_trace.json."""
    problem = build_problem(
        DATASET,
        budget=BUDGET,
        num_snapshots=bench_profile.num_snapshots,
        scale=bench_profile.scale,
        seed=bench_profile.seed,
    )

    # Traced replay -> critical path of the longest query.  Coverage is ~1.0
    # by construction of the backwards interval walk; the floor guards the
    # tree/interval reconstruction, not the workload.
    previous = tracer.set_enabled(True)
    tracer.drain()
    try:
        _replay(problem)
    finally:
        spans = tracer.drain()
        tracer.set_enabled(previous)
    queries = [
        root for root in build_span_trees(spans) if root.name == "engine.query"
    ]
    longest = max(queries, key=lambda root: root.duration)
    steps = critical_path(longest)
    path_seconds = sum(step.seconds for step in steps)
    coverage = path_seconds / longest.duration if longest.duration else 1.0

    payload = {
        "workload": {
            "dataset": DATASET,
            "k": problem.k,
            "budget": problem.budget,
            "num_snapshots": problem.num_snapshots,
            "scale": bench_profile.scale,
        },
        "critical_path": {
            "root": longest.name,
            "wall_seconds": longest.duration,
            "path_seconds": path_seconds,
            "coverage": coverage,
            "steps": len(steps),
            "span_count": len(spans),
        },
        "floors": {
            "critical_path_coverage": {
                "value": coverage,
                "floor": CRITICAL_PATH_COVERAGE_FLOOR,
                "enforced": True,
            },
        },
    }
    report = "\n".join(
        [
            f"Trace analysis tier on {DATASET} "
            f"(k={problem.k}, l={problem.budget}, T={problem.num_snapshots}, "
            f"scale={bench_profile.scale})",
            "",
            f"critical path:           {path_seconds * 1e3:.1f} ms of "
            f"{longest.duration * 1e3:.1f} ms root wall "
            f"({coverage * 100:.1f}% coverage, {len(steps)} steps)",
        ]
    )
    return payload, report


def test_obs_overhead(benchmark, bench_profile, results_dir, record_report):
    payload, report = benchmark.pedantic(
        lambda: run_overhead(bench_profile), rounds=1, iterations=1
    )
    record_report("obs_overhead", report)
    write_bench_json(results_dir / "BENCH_obs.json", "obs_overhead", payload)

    assert payload["span_count"] > 0
    assert floor_failures(payload) == []


def test_trace_analysis_bench(benchmark, bench_profile, results_dir, record_report):
    payload, report = benchmark.pedantic(
        lambda: run_trace_analysis(bench_profile), rounds=1, iterations=1
    )
    record_report("trace_analysis", report)
    write_bench_json(results_dir / "BENCH_trace.json", "trace_analysis", payload)

    assert payload["critical_path"]["coverage"] >= CRITICAL_PATH_COVERAGE_FLOOR
    assert floor_failures(payload) == []
