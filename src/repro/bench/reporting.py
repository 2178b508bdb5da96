"""Plain-text rendering of experiment results (figures and tables as text).

The paper's figures are log-scale line charts with one line per algorithm.
Since this repository has no plotting dependency, each figure is rendered as
the underlying series — one block per dataset, one line per algorithm, one
``x=y`` pair per parameter value — plus an ASCII table of the raw rows.  The
same renderers feed the CLI, the benchmark harness printouts, and
``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.bench.runner import ExperimentTable


def format_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as a fixed-width ASCII table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    widths = {column: len(str(column)) for column in columns}
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered = [str(row.get(column, "")) for column in columns]
        rendered_rows.append(rendered)
        for column, value in zip(columns, rendered):
            widths[column] = max(widths[column], len(value))
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    body = [
        " | ".join(value.ljust(widths[column]) for column, value in zip(columns, rendered))
        for rendered in rendered_rows
    ]
    return "\n".join([header, separator, *body])


def format_series(
    table: ExperimentTable,
    x: str,
    y: str,
    dataset_column: str = "dataset",
    group: str = "algorithm",
    title: str = "",
) -> str:
    """Render one paper figure as text: one block per dataset, one line per algorithm."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for dataset in table.distinct(dataset_column):
        lines.append(f"[{dataset}]")
        sub_table = table.filter(**{dataset_column: dataset})
        for algorithm, points in sub_table.series(x=x, y=y, group=group).items():
            rendered_points = "  ".join(f"{px}={_format_value(py)}" for px, py in points)
            lines.append(f"  {str(algorithm):<12} {rendered_points}")
    return "\n".join(lines)


def format_followers_series(table: ExperimentTable, title: str = "") -> str:
    """Render per-snapshot follower series (Figures 9 and 12 style)."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for dataset in table.distinct("dataset"):
        lines.append(f"[{dataset}]")
        for row in table.filter(dataset=dataset).rows():
            series = row.get("followers_series", [])
            rendered = " ".join(str(value) for value in series)
            lines.append(f"  {str(row.get('algorithm')):<12} {rendered}")
    return "\n".join(lines)


def format_speedup_summary(
    table: ExperimentTable, baseline: str = "OLAK", metric: str = "time_s"
) -> str:
    """Summarise each algorithm's advantage over ``baseline`` per dataset."""
    lines: List[str] = ["speed-up vs " + baseline + f" ({metric})"]
    for dataset in table.distinct("dataset"):
        sub_table = table.filter(dataset=dataset)
        baseline_rows = sub_table.filter(algorithm=baseline).rows()
        if not baseline_rows:
            continue
        baseline_total = sum(float(row.get(metric, 0) or 0) for row in baseline_rows)
        lines.append(f"[{dataset}] baseline total {metric}={_format_value(baseline_total)}")
        for algorithm in sub_table.distinct("algorithm"):
            if algorithm == baseline:
                continue
            total = sum(
                float(row.get(metric, 0) or 0)
                for row in sub_table.filter(algorithm=algorithm).rows()
            )
            ratio = baseline_total / total if total else float("inf")
            lines.append(f"  {str(algorithm):<12} {_format_value(total)} ({ratio:.1f}x)")
    return "\n".join(lines)


def _format_value(value: object) -> str:
    """Compactly format numbers (3 significant decimals for floats)."""
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:.0f}"
        return f"{value:.3f}"
    return str(value)


# ---------------------------------------------------------------------------
# Machine-readable benchmark records (perf trajectory across PRs)
# ---------------------------------------------------------------------------
def bench_environment() -> Dict[str, object]:
    """Return the provenance stamp attached to every benchmark JSON record.

    Captures the git SHA (``"unknown"`` outside a checkout), a UTC timestamp
    and the Python version, so ``BENCH_*.json`` files from different PRs can
    be compared as a time series.
    """
    import platform
    import subprocess
    from datetime import datetime, timezone
    from pathlib import Path

    try:
        sha = (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
                # Resolve against the checkout this module lives in, not the
                # process cwd — the record must stamp the code under test.
                cwd=Path(__file__).resolve().parents[3],
            ).stdout.strip()
        )
    except Exception:
        sha = "unknown"
    return {
        "git_sha": sha,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def write_bench_json(
    path,
    name: str,
    payload: Mapping[str, object],
    *,
    backend: str = "auto",
    metrics=None,
) -> None:
    """Write one benchmark record as pretty-printed JSON with provenance.

    ``payload`` holds the benchmark-specific numbers (timings, hit rates,
    speedups); the record wraps it with the benchmark ``name``,
    :func:`bench_environment`, an ``execution`` block recording the backend
    name the run used, and a ``metrics`` block — the unified
    metrics-registry snapshot of the run (see :mod:`repro.obs`).  ``metrics``
    may be a :class:`~repro.obs.MetricsRegistry`, an already-materialised
    snapshot list, or ``None`` to capture the process-wide registry, so
    records from differently configured runs can be compared as a time
    series down to individual counters.
    """
    import json
    from pathlib import Path

    from repro.obs import MetricsRegistry, global_registry

    if metrics is None:
        metrics = global_registry()
    if isinstance(metrics, MetricsRegistry):
        metrics = metrics.snapshot()
    record = {
        "benchmark": name,
        "environment": bench_environment(),
        "execution": {"backend": backend},
        **dict(payload),
        "metrics": list(metrics),
    }
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=False) + "\n", encoding="utf-8")
