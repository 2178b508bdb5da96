"""Backend comparison — dict vs numpy, plus incremental Greedy.

Not a paper figure: this certifies the execution backends registered in
:mod:`repro.backends`.  A 50k-vertex power-law (Chung–Lu) graph is solved
end-to-end with Greedy on every available backend; both backends must return
byte-identical decompositions (core numbers *and* removal order), k-cores,
anchors and followers.  Per-kernel timings (full decomposition, single
k-core cascade, Greedy end to end) and numpy's speedups over dict are
recorded for the perf trajectory, without a floor.

One floor is enforced at full size: the incremental Greedy (delta-refresh
``commit_anchor`` + memoized gains) must beat the full-recompute Greedy
end-to-end by >= 2x at budget 8, with bit-identical anchors, followers and
instrumentation counters, on the backend ``auto`` picks for the graph (numpy
at full size when it is installed, dict at the CI smoke size).

``AVT_BENCH_BACKEND_VERTICES`` overrides the graph size (the CI smoke job
runs a tiny instance, where the floor is recorded but not enforced).
Results land in ``benchmarks/results/BENCH_backend.json`` and
``BENCH_incremental.json`` (per-round commit latency, candidate
re-evaluation counts).  The incremental record carries a ``floors`` block
enforced both here and by ``python -m repro.bench.compare`` in CI, so a
recorded speedup regressing below its floor fails loudly.
"""

from __future__ import annotations

import os
import time

from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import get_backend, numpy_available
from repro.bench.compare import floor_failures
from repro.bench.reporting import format_table, write_bench_json
from repro.cores.decomposition import core_decomposition, k_core
from repro.graph.generators import chung_lu_graph

DEFAULT_NUM_VERTICES = 50_000
EDGE_FACTOR = 3
K = 4
BUDGET = 2
SEED = 42

#: The perf floor is enforced at or above this size; tiny smoke runs only
#: check result equivalence.
SPEEDUP_ENFORCEMENT_FLOOR = 50_000
#: The incremental refresh + memoized gains must beat the full-recompute
#: Greedy end-to-end at this budget.
INCREMENTAL_BUDGET = 8
REQUIRED_INCREMENTAL_SPEEDUP = 2.0


def _num_vertices() -> int:
    return int(os.environ.get("AVT_BENCH_BACKEND_VERTICES", DEFAULT_NUM_VERTICES))


def run_compare():
    num_vertices = _num_vertices()
    graph = chung_lu_graph(num_vertices, EDGE_FACTOR * num_vertices, seed=SEED)
    backends = ["dict"] + (["numpy"] if numpy_available() else [])
    if "numpy" in backends:
        # Touch the numpy kernels once so first-call import/allocator warmup
        # does not pollute the timed sections.
        core_decomposition(chung_lu_graph(64, 128, seed=7), backend="numpy")

    timings = {}
    results = {}
    for backend in backends:
        started = time.perf_counter()
        decomposition = core_decomposition(graph, backend=backend)
        decomposition_seconds = time.perf_counter() - started

        started = time.perf_counter()
        core_members = k_core(graph, K, backend=backend)
        k_core_seconds = time.perf_counter() - started

        started = time.perf_counter()
        outcome = GreedyAnchoredKCore(graph, K, BUDGET, backend=backend).select()
        greedy_seconds = time.perf_counter() - started

        timings[backend] = {
            "decomposition_s": decomposition_seconds,
            "k_core_s": k_core_seconds,
            "greedy_end_to_end_s": greedy_seconds,
        }
        results[backend] = (decomposition, core_members, outcome)

    dict_decomposition, dict_core, dict_outcome = results["dict"]
    for backend in backends[1:]:
        other_decomposition, other_core, other_outcome = results[backend]
        assert dict(dict_decomposition.core) == dict(other_decomposition.core), backend
        assert dict_decomposition.order == other_decomposition.order, backend
        assert dict_core == other_core, backend
        assert dict_outcome.anchors == other_outcome.anchors, backend
        assert dict_outcome.followers == other_outcome.followers, backend
        assert dict_outcome.anchored_core_size == other_outcome.anchored_core_size, backend

    stages = ("decomposition_s", "k_core_s", "greedy_end_to_end_s")
    speedups = {
        backend: {
            stage: timings["dict"][stage] / max(timings[backend][stage], 1e-9)
            for stage in stages
        }
        for backend in backends[1:]
    }
    rows = []
    for stage in stages:
        row = {"stage": stage}
        for backend in backends:
            row[f"{backend}_s"] = round(timings[backend][stage], 4)
        for backend in backends[1:]:
            row[f"{backend}_speedup"] = round(speedups[backend][stage], 2)
        rows.append(row)
    report = "\n".join(
        [
            f"Backend comparison on a Chung-Lu power-law graph "
            f"(n={graph.num_vertices}, m={graph.num_edges}, k={K}, l={BUDGET}; "
            f"backends: {', '.join(backends)})",
            "",
            format_table(rows),
            "",
            f"Greedy results identical across backends: anchors={dict_outcome.anchors}, "
            f"followers={len(dict_outcome.followers)}",
        ]
    )
    header = ["stage"] + [f"{backend}_s" for backend in backends] + [
        f"{backend}_speedup" for backend in backends[1:]
    ]
    csv_lines = [",".join(header)]
    csv_lines += [
        ",".join(str(row.get(column, "")) for column in header) for row in rows
    ]
    payload = {
        "graph": {
            "model": "chung_lu",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": SEED,
        },
        "workload": {"k": K, "budget": BUDGET, "solver": "greedy"},
        "backends": backends,
        "timings_seconds": timings,
        "speedups_vs_dict": speedups,
        "greedy_followers": len(dict_outcome.followers),
        "results_identical": True,
    }
    return payload, report, "\n".join(csv_lines) + "\n"


def run_incremental_compare():
    """Incremental vs full-recompute Greedy on the backend ``auto`` picks.

    The same selection problem (bit-identical anchors and followers by the
    delta-refresh contract) solved twice: once with ``incremental=False``
    (a capped rebuild of the index per commit, every candidate cascaded
    every round) and once with the default incremental path (capped
    commits + memoized gains).
    """
    num_vertices = _num_vertices()
    graph = chung_lu_graph(num_vertices, EDGE_FACTOR * num_vertices, seed=SEED)
    backend = get_backend("auto", graph.num_vertices).name

    started = time.perf_counter()
    full = GreedyAnchoredKCore(
        graph, K, INCREMENTAL_BUDGET, backend=backend, incremental=False
    ).select()
    full_seconds = time.perf_counter() - started

    started = time.perf_counter()
    incremental = GreedyAnchoredKCore(
        graph, K, INCREMENTAL_BUDGET, backend=backend, incremental=True
    ).select()
    incremental_seconds = time.perf_counter() - started

    assert full.anchors == incremental.anchors
    assert full.followers == incremental.followers
    assert full.anchored_core_size == incremental.anchored_core_size
    assert full.stats.candidates_evaluated == incremental.stats.candidates_evaluated
    assert full.stats.visited_vertices == incremental.stats.visited_vertices

    speedup = full_seconds / max(incremental_seconds, 1e-9)
    evaluated = incremental.stats.candidates_evaluated
    payload = {
        "graph": {
            "model": "chung_lu",
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "seed": SEED,
        },
        "workload": {
            "k": K,
            "budget": INCREMENTAL_BUDGET,
            "solver": "greedy",
            "backend": backend,
        },
        "greedy_seconds": {
            "full_recompute": full_seconds,
            "incremental": incremental_seconds,
        },
        "incremental_speedup": speedup,
        "per_round_commit_seconds": {
            "full_recompute": full.stats.commit_seconds,
            "incremental": incremental.stats.commit_seconds,
        },
        "candidate_evaluations": {
            "evaluated": evaluated,
            "recomputed_incremental": incremental.stats.candidates_recomputed,
            "cache_hits_incremental": incremental.stats.cache_hits,
            "recomputed_full": full.stats.candidates_recomputed,
        },
        "anchors_selected": len(incremental.anchors),
        "followers": len(incremental.followers),
        "results_identical": True,
        "floors": {
            "incremental_greedy_speedup": {
                "value": speedup,
                "floor": REQUIRED_INCREMENTAL_SPEEDUP,
                "enforced": num_vertices >= SPEEDUP_ENFORCEMENT_FLOOR,
            },
        },
    }
    report = (
        f"Incremental vs full-recompute Greedy on chung_lu(n={graph.num_vertices}, "
        f"m={graph.num_edges}, k={K}, l={INCREMENTAL_BUDGET}, {backend} backend): "
        f"full={full_seconds:.3f}s incremental={incremental_seconds:.3f}s "
        f"-> {speedup:.2f}x (cascades: {evaluated} evaluated, "
        f"{incremental.stats.candidates_recomputed} recomputed, "
        f"{incremental.stats.cache_hits} cache hits)"
    )
    return payload, report


def test_backend_compare(benchmark, results_dir, record_report):
    payload, report, csv_text = benchmark.pedantic(run_compare, rounds=1, iterations=1)
    record_report("backend_compare", report, csv_text)
    write_bench_json(
        results_dir / "BENCH_backend.json",
        "backend_compare",
        payload,
        backend="+".join(payload["backends"]),
    )


def test_incremental_compare(benchmark, results_dir, record_report):
    payload, report = benchmark.pedantic(run_incremental_compare, rounds=1, iterations=1)
    record_report("incremental_compare", report)
    write_bench_json(
        results_dir / "BENCH_incremental.json",
        "incremental_refresh",
        payload,
        backend=payload["workload"]["backend"],
    )
    # Computed once, recorded in the ``floors`` block and enforced through
    # the same :func:`repro.bench.compare.floor_failures` reader the CI
    # bench-smoke step runs, so the recorded ratio and the enforced ratio
    # can never diverge.
    assert not floor_failures(payload), floor_failures(payload)
