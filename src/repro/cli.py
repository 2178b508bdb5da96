"""Command-line interface: run any paper experiment from the shell.

Installed as the ``avt-bench`` console script::

    avt-bench --list                      # show every experiment id
    avt-bench fig03                       # Figure 3 on the quick profile
    avt-bench fig05 --profile medium      # medium profile (all six datasets)
    avt-bench table4 --csv out.csv        # also dump the raw rows as CSV
    avt-bench summary --dataset gnutella  # one-problem comparison of all trackers
    avt-bench serve-sim --dataset gnutella  # online engine simulation
    avt-bench backends                    # the two execution backends
    avt-bench trace critical-path t.jsonl # analyze a --trace-out span file
    avt-bench trace flame t.jsonl --out collapsed.txt   # flamegraph input
    avt-bench trace tree a.jsonl --diff b.jsonl         # latency delta by span
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.avt import metrics
from repro.bench.experiments import EXPERIMENTS, get_experiment, resolve_profile
from repro.bench.reporting import format_table
from repro.bench.runner import default_trackers, run_tracker
from repro.bench.workloads import build_problem
from repro.errors import ReproError
from repro.graph.datasets import DATASET_NAMES, dataset_summary


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avt-bench",
        description="Reproduce the tables and figures of the Anchored Vertex Tracking paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=(
            "experiment id (fig03..fig12, table4, ablation_*), 'summary', "
            "'datasets', 'backends', 'serve-sim', or 'trace'"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--profile",
        default=None,
        choices=["quick", "medium", "full"],
        help="execution profile (default: AVT_BENCH_PROFILE or 'quick')",
    )
    parser.add_argument("--csv", type=Path, default=None, help="write the raw result rows to this CSV file")
    parser.add_argument("--dataset", default="gnutella", choices=DATASET_NAMES, help="dataset for 'summary'")
    parser.add_argument("--k", type=int, default=None, help="degree constraint for 'summary'")
    parser.add_argument("--budget", type=int, default=5, help="anchor budget for 'summary'")
    parser.add_argument("--snapshots", type=int, default=10, help="number of snapshots for 'summary'")
    parser.add_argument("--scale", type=float, default=0.5, help="dataset scale for 'summary'")
    serve = parser.add_argument_group("serve-sim options")
    serve.add_argument(
        "--queries-per-step",
        type=int,
        default=2,
        help="queries interleaved after each replayed delta (>= 2 exercises the cache)",
    )
    serve.add_argument("--batch-size", type=int, default=64, help="ingest auto-flush threshold")
    serve.add_argument("--cache-capacity", type=int, default=256, help="result cache capacity")
    serve.add_argument(
        "--cold", action="store_true", help="disable warm (IncAVT-refresh) query answering"
    )
    serve.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="write a checkpoint here mid-replay, restore it, and verify the answer matches",
    )
    serve.add_argument(
        "--backend",
        default="auto",
        help=(
            "execution backend for the engine: 'auto', 'dict' or 'numpy' "
            "(see 'avt-bench backends')"
        ),
    )
    serve.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help=(
            "enable hierarchical tracing for the run and stream spans to this "
            "JSON-lines file (see repro.obs)"
        ),
    )
    serve.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help=(
            "write the run's metrics snapshot here; '.prom'/'.txt' "
            "selects Prometheus text exposition, anything else JSON"
        ),
    )
    return parser


def _run_summary(args: argparse.Namespace) -> int:
    """Run every tracker on a single problem and print the comparison table."""
    problem = build_problem(
        args.dataset,
        k=args.k,
        budget=args.budget,
        num_snapshots=args.snapshots,
        scale=args.scale,
    )
    results = []
    for spec in default_trackers():
        result, _ = run_tracker(problem, spec)
        results.append(result)
    print(
        f"AVT comparison on {problem.name} "
        f"(k={problem.k}, l={problem.budget}, T={problem.num_snapshots}, scale={args.scale})"
    )
    print(format_table(metrics.summarise(results)))
    print()
    print(
        "IncAVT speed-up vs OLAK: "
        f"{metrics.speedup(results, baseline='OLAK', target='IncAVT'):.1f}x, "
        "vs Greedy: "
        f"{metrics.speedup(results, baseline='Greedy', target='IncAVT'):.1f}x"
    )
    return 0


def _check_output_dirs(args: argparse.Namespace, flags: Sequence[str]) -> None:
    """Reject an output path whose directory does not exist, before any work."""
    from repro.errors import ParameterError

    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is not None and not path.parent.is_dir():
            raise ParameterError(f"{flag} {path}: directory {path.parent} does not exist")


def _run_serve_sim(args: argparse.Namespace) -> int:
    """Replay a dataset's deltas through the streaming engine with interleaved queries.

    ``--trace-out`` enables hierarchical tracing for the duration of the run
    and streams every finished span to a JSON-lines file; ``--metrics-out``
    writes the engine's stats snapshot (plus the process-wide registry)
    after the replay, as Prometheus text or JSON by extension.
    """
    from repro.backends import get_backend
    from repro.obs import JsonLinesSpanSink, global_registry, tracer, write_metrics

    get_backend(args.backend)  # reject a bad --backend before loading the dataset
    sink = None
    previous_enabled = None
    if args.trace_out is not None:
        sink = JsonLinesSpanSink(args.trace_out)
        tracer.add_sink(sink)
        previous_enabled = tracer.set_enabled(True)
    engine = None
    try:
        # When we own the sink, the JSONL file is the trace of record — drain
        # the in-process buffer as the replay progresses so long replays stay
        # bounded in memory instead of filling the 50k span buffer.
        code, engine = _serve_sim_replay(args, drain_spans=sink is not None)
    finally:
        if sink is not None:
            tracer.set_enabled(previous_enabled)
            tracer.remove_sink(sink)
            sink.close()
    if sink is not None:
        print(f"trace written to {args.trace_out} ({sink.spans_written} spans)")
    if args.metrics_out is not None and engine is not None:
        snapshot = engine.stats.snapshot() + global_registry().snapshot()
        fmt = write_metrics(snapshot, args.metrics_out)
        print(f"metrics snapshot ({fmt}) written to {args.metrics_out}")
    return code


def _serve_sim_replay(args: argparse.Namespace, drain_spans: bool = False):
    """The serve-sim replay loop; returns ``(exit_code, engine)``."""
    from repro.engine import StreamingAVTEngine
    from repro.obs import tracer

    problem = build_problem(
        args.dataset,
        k=args.k,
        budget=args.budget,
        num_snapshots=args.snapshots,
        scale=args.scale,
    )
    evolving = problem.evolving_graph
    engine = StreamingAVTEngine(
        evolving.base,
        cache_capacity=args.cache_capacity,
        batch_size=args.batch_size,
        warm_queries=not args.cold,
        backend=args.backend,
    )
    queries_per_step = max(1, args.queries_per_step)
    print(
        f"serve-sim on {problem.name} (k={problem.k}, l={problem.budget}, "
        f"T={problem.num_snapshots}, scale={args.scale}, "
        f"backend={engine.backend}): replaying "
        f"{evolving.total_edge_changes()} edge events with {queries_per_step} "
        f"queries per step"
    )

    def checkpoint_and_verify(step: int, result) -> bool:
        engine.checkpoint(args.checkpoint)
        restored = StreamingAVTEngine.restore(args.checkpoint, backend=args.backend)
        check = restored.query(problem.k, problem.budget)
        matches = check.anchors == result.anchors and check.followers == result.followers
        print(
            f"checkpoint at t={step} -> {args.checkpoint} "
            f"(restore verified: {'ok' if matches else 'MISMATCH'})"
        )
        return matches

    result = engine.query(problem.k, problem.budget)
    print(f"t=0  {result.summary()}")
    checkpoint_step = max(1, len(evolving.deltas) // 2)
    checkpointed = False
    for step, delta in enumerate(evolving.deltas, start=1):
        engine.ingest(delta)
        for _ in range(queries_per_step):
            result = engine.query(problem.k, problem.budget)
        print(
            f"t={step}  {result.summary()} "
            f"[version={engine.graph_version}, cached={len(engine.cache)}]"
        )
        if drain_spans:
            tracer.drain()
        if args.checkpoint is not None and step == checkpoint_step:
            checkpointed = True
            if not checkpoint_and_verify(step, result):
                return 2, engine
    if args.checkpoint is not None and not checkpointed:
        # No deltas to replay (e.g. --snapshots 1): honour --checkpoint anyway.
        if not checkpoint_and_verify(0, result):
            return 2, engine

    print()
    print(engine.stats.summary())
    if evolving.deltas and queries_per_step >= 2 and engine.stats.cache_hits < 1:
        # Whenever the replay repeated queries per step at least the repeats
        # must hit; a single query per step (or an empty replay) makes no such
        # promise.
        print("error: expected at least one cache hit", file=sys.stderr)
        return 2, engine
    return 0, engine


def _run_datasets() -> int:
    """Print summary statistics of every bundled dataset stand-in."""
    rows = [dataset_summary(name, num_snapshots=5, scale=0.5) for name in DATASET_NAMES]
    print(format_table(rows))
    return 0


def _run_backends() -> int:
    """Print both execution backends with their availability."""
    from repro.backends import BACKEND_DICT, BACKEND_NUMPY, numpy_unavailable_reason

    numpy_reason = numpy_unavailable_reason()
    rows = [
        {"backend": BACKEND_DICT, "available": "yes", "reason": "-"},
        {
            "backend": BACKEND_NUMPY,
            "available": "no" if numpy_reason else "yes",
            "reason": numpy_reason or "-",
        },
    ]
    print(format_table(rows))
    print()
    print("'auto' picks numpy whenever it is available, at any graph size, and dict otherwise.")
    return 0


def _load_trace(path: Path):
    from repro.errors import ParameterError
    from repro.obs import read_spans_jsonl

    try:
        spans = read_spans_jsonl(path)
    except OSError as error:
        raise ParameterError(f"cannot read trace {path}: {error}") from error
    if not spans:
        raise ParameterError(f"trace {path} contains no spans")
    return spans


def _pick_trace_root(spans, root_name: Optional[str]):
    """The longest root span (optionally restricted by name) in a trace file."""
    from repro.errors import ParameterError
    from repro.obs import build_span_trees

    roots = build_span_trees(spans)
    if root_name is not None:
        roots = [root for root in roots if root.name == root_name]
        if not roots:
            raise ParameterError(f"no root span named {root_name!r} in the trace")
    return max(roots, key=lambda root: root.duration)


def _print_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff_traces

    report = diff_traces(_load_trace(args.trace), _load_trace(args.diff))
    rows = [
        {
            "span": entry["name"],
            "self_a_ms": f"{entry['self_seconds_a'] * 1e3:.3f}",
            "self_b_ms": f"{entry['self_seconds_b'] * 1e3:.3f}",
            "delta_ms": f"{entry['delta_seconds'] * 1e3:+.3f}",
            "count_a": entry["count_a"],
            "count_b": entry["count_b"],
        }
        for entry in report["by_name"][: args.top]
    ]
    print(f"latency delta by span name: {args.trace} -> {args.diff}")
    print(format_table(rows))
    print(
        f"total self time {report['total_self_seconds_a'] * 1e3:.3f}ms -> "
        f"{report['total_self_seconds_b'] * 1e3:.3f}ms "
        f"({report['delta_seconds'] * 1e3:+.3f}ms)"
    )
    return 0


def _run_trace(argv: Sequence[str]) -> int:
    """``avt-bench trace`` — offline analytics over a ``--trace-out`` file."""
    from repro.obs import (
        critical_path,
        flame_stacks,
        render_collapsed,
        render_tree,
    )

    parser = argparse.ArgumentParser(
        prog="avt-bench trace",
        description=(
            "Analyze a span trace captured with --trace-out (JSON lines): "
            "span trees, critical paths, flamegraph stacks, and two-trace "
            "latency diffs."
        ),
    )
    parser.add_argument(
        "command",
        choices=["tree", "critical-path", "flame"],
        help="analysis to run over the trace",
    )
    parser.add_argument("trace", type=Path, help="JSON-lines span file")
    parser.add_argument(
        "--diff",
        type=Path,
        default=None,
        help=(
            "second trace: print the per-span-name self-time delta between "
            "the two traces instead of the single-trace report"
        ),
    )
    parser.add_argument(
        "--root",
        default=None,
        help="restrict tree/critical-path to roots with this span name",
    )
    parser.add_argument("--depth", type=int, default=None, help="tree: printed depth limit")
    parser.add_argument("--top", type=int, default=15, help="rows/roots to print")
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="flame: write the collapsed stacks to this file instead of stdout",
    )
    args = parser.parse_args(argv)
    _check_output_dirs(args, ["--out"])

    if args.diff is not None:
        return _print_trace_diff(args)
    spans = _load_trace(args.trace)

    if args.command == "tree":
        from repro.obs import build_span_trees

        roots = build_span_trees(spans)
        if args.root is not None:
            roots = [root for root in roots if root.name == args.root]
        roots = sorted(roots, key=lambda root: root.duration, reverse=True)[: args.top]
        print(
            f"{len(spans)} spans in {args.trace}; "
            f"showing the {len(roots)} longest trace(s):"
        )
        print(render_tree(roots, max_depth=args.depth))
        return 0

    if args.command == "critical-path":
        root = _pick_trace_root(spans, args.root)
        steps = critical_path(root)
        wall = root.duration
        covered = sum(step.seconds for step in steps)
        rows = [
            {
                "span": step.node.name,
                "on_path_ms": f"{step.seconds * 1e3:.3f}",
                "pct_of_wall": f"{step.seconds / wall * 100:.1f}%" if wall else "-",
            }
            for step in steps
        ]
        print(
            f"critical path through {root.name!r} "
            f"(trace {root.trace_id}, wall {wall * 1e3:.3f}ms):"
        )
        print(format_table(rows))
        pct = covered / wall * 100 if wall else 100.0
        print(
            f"critical path covers {covered * 1e3:.3f}ms of "
            f"{wall * 1e3:.3f}ms wall ({pct:.1f}%)"
        )
        return 0

    # flame
    collapsed = render_collapsed(flame_stacks(spans))
    if args.out is not None:
        args.out.write_text(collapsed + "\n", encoding="utf-8")
        print(
            f"{len(collapsed.splitlines())} collapsed stacks written to "
            f"{args.out} (feed to flamegraph.pl / speedscope / inferno)"
        )
    else:
        print(collapsed)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``avt-bench`` console script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        # The trace analyzer has its own positional grammar (command + file);
        # dispatch before the experiment parser sees it.
        try:
            return _run_trace(argv[1:])
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list or args.experiment is None:
        print("Available experiments:")
        for name in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]
            print(f"  {name:<22} {doc}")
        print("  summary                Compare all trackers on one dataset (see --dataset).")
        print("  datasets               Show the bundled dataset stand-ins.")
        print("  backends               Show the execution backends and their availability.")
        print("  serve-sim              Replay a dataset through the online streaming engine.")
        print("  trace                  Analyze a --trace-out span file (tree, critical-path,")
        print("                         flame; --diff compares two traces).")
        return 0

    try:
        _check_output_dirs(args, ["--csv", "--checkpoint", "--trace-out", "--metrics-out"])
        if args.experiment == "summary":
            return _run_summary(args)
        if args.experiment == "datasets":
            return _run_datasets()
        if args.experiment == "backends":
            return _run_backends()
        if args.experiment == "serve-sim":
            return _run_serve_sim(args)
        experiment = get_experiment(args.experiment)
        profile = resolve_profile(args.profile)
        print(f"Running {args.experiment} with profile '{profile.name}' (scale={profile.scale})...")
        table, report = experiment(profile)
        print(report)
        if args.csv is not None:
            args.csv.write_text(table.to_csv(), encoding="utf-8")
            print(f"\nraw rows written to {args.csv}")
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
