"""One experiment definition per table and figure of the paper's evaluation.

Each experiment function takes a :class:`BenchProfile` (which controls dataset
scale, snapshot count and parameter grids) and returns an
:class:`~repro.bench.runner.ExperimentTable` plus a plain-text report that
mirrors the corresponding paper figure: the same datasets, the same varied
parameter, one series per algorithm.

Profiles
--------
``quick``
    Two datasets at reduced scale; the default profile.  CI runs the
    paper-figure benches at it, naming each ``benchmarks/bench_*.py`` file:
    ``pytest benchmarks/`` collects no tests, because nothing configures
    pytest to collect ``bench_*.py`` files.
``medium``
    All six dataset stand-ins at half scale — the configuration recorded in
    ``EXPERIMENTS.md``.
``full``
    All six stand-ins at full stand-in scale with the paper's parameter grids
    (T = 30, l up to 20); expect an hour or more of pure-Python runtime.

The active profile is chosen with the ``AVT_BENCH_PROFILE`` environment
variable (see :func:`resolve_profile`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.anchored.bruteforce import BruteForceAnchoredKCore
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.olak import OLAKAnchoredKCore
from repro.anchored.rcm import RCMAnchoredKCore
from repro.avt.incremental import IncAVTTracker
from repro.avt.problem import AVTProblem
from repro.avt.trackers import GreedyTracker
from repro.bench.reporting import (
    format_followers_series,
    format_series,
    format_speedup_summary,
    format_table,
)
from repro.bench.runner import ExperimentTable, TrackerSpec, default_trackers, run_sweep, run_tracker
from repro.bench.workloads import build_problem, dataset_k_values
from repro.errors import ParameterError
from repro.graph.datasets import DATASET_NAMES
from repro.ordering import tie_break_key


@dataclass(frozen=True)
class BenchProfile:
    """Execution profile for the experiment harness."""

    name: str
    datasets: Tuple[str, ...]
    scale: float
    num_snapshots: int
    budget: int
    k_values_per_dataset: int
    snapshot_grid: Tuple[int, ...]
    budget_grid: Tuple[int, ...]
    case_study_dataset: str = "eu_core"
    case_study_k: int = 3
    case_study_budget: int = 2
    seed: int = 7


_PROFILES: Dict[str, BenchProfile] = {
    "quick": BenchProfile(
        name="quick",
        datasets=("gnutella", "eu_core"),
        scale=0.35,
        num_snapshots=6,
        budget=4,
        k_values_per_dataset=2,
        snapshot_grid=(2, 4, 6),
        budget_grid=(2, 4),
    ),
    "medium": BenchProfile(
        name="medium",
        datasets=DATASET_NAMES,
        scale=0.5,
        num_snapshots=10,
        budget=5,
        k_values_per_dataset=3,
        snapshot_grid=(2, 4, 6, 8, 10),
        budget_grid=(5, 10, 15),
    ),
    "full": BenchProfile(
        name="full",
        datasets=DATASET_NAMES,
        scale=1.0,
        num_snapshots=30,
        budget=10,
        k_values_per_dataset=4,
        snapshot_grid=(2, 6, 10, 14, 18, 22, 26, 30),
        budget_grid=(5, 10, 15, 20),
    ),
}

#: Per-process cache of shared sweeps so figure pairs (e.g. time-vs-k and
#: visited-vs-k) that derive from the same runs do not recompute them.
_SWEEP_CACHE: Dict[Tuple[str, str], ExperimentTable] = {}


def resolve_profile(name: Optional[str] = None) -> BenchProfile:
    """Return the requested profile (default from ``AVT_BENCH_PROFILE``).

    The ``AVT_BENCH_SCALE`` environment variable, when set, overrides the
    profile's dataset scale — handy for dialling runtime up or down without
    defining a new profile.
    """
    if name is None:
        name = os.environ.get("AVT_BENCH_PROFILE", "quick")
    try:
        profile = _PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(_PROFILES))
        raise ParameterError(f"unknown bench profile {name!r}; known profiles: {known}") from None
    scale_override = os.environ.get("AVT_BENCH_SCALE")
    if scale_override:
        profile = replace(profile, scale=float(scale_override))
    return profile


def clear_sweep_cache() -> None:
    """Drop all cached sweeps (used by tests)."""
    _SWEEP_CACHE.clear()


# ---------------------------------------------------------------------------
# Shared sweeps
# ---------------------------------------------------------------------------
def _problems_for_k_sweep(profile: BenchProfile) -> List[AVTProblem]:
    problems: List[AVTProblem] = []
    for dataset in profile.datasets:
        for k in dataset_k_values(dataset)[: profile.k_values_per_dataset]:
            problems.append(
                build_problem(
                    dataset,
                    k=k,
                    budget=profile.budget,
                    num_snapshots=profile.num_snapshots,
                    scale=profile.scale,
                    seed=profile.seed,
                )
            )
    return problems


def _sweep_vary_k(profile: BenchProfile) -> ExperimentTable:
    """Run all trackers over every (dataset, k) cell (shared by Figures 3, 4, 11)."""
    key = (profile.name, f"vary_k_scale{profile.scale}")
    if key not in _SWEEP_CACHE:
        _SWEEP_CACHE[key] = run_sweep(_problems_for_k_sweep(profile))
    return _SWEEP_CACHE[key]


def _sweep_vary_T(profile: BenchProfile) -> ExperimentTable:
    """Track the full horizon once, then report cumulative metrics per T prefix.

    All trackers process snapshots sequentially, so the cumulative time /
    visited / follower counts after the first ``T`` snapshots of a single long
    run are exactly what independent runs with horizon ``T`` would report —
    at a fraction of the compute (shared by Figures 5, 6, 9).
    """
    key = (profile.name, f"vary_T_scale{profile.scale}")
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    table = ExperimentTable()
    horizon = max(profile.snapshot_grid)
    for dataset in profile.datasets:
        problem = build_problem(
            dataset,
            budget=profile.budget,
            num_snapshots=horizon,
            scale=profile.scale,
            seed=profile.seed,
        )
        for spec in default_trackers():
            result, _ = run_tracker(problem, spec)
            snapshots = result.snapshots
            for T in profile.snapshot_grid:
                prefix = snapshots[:T]
                table.append(
                    {
                        "dataset": dataset,
                        "algorithm": result.algorithm,
                        "k": problem.k,
                        "l": problem.budget,
                        "T": T,
                        "time_s": round(
                            sum(s.result.stats.runtime_seconds for s in prefix), 6
                        ),
                        "visited": sum(s.result.stats.visited_vertices for s in prefix),
                        "candidates": sum(
                            s.result.stats.candidates_evaluated for s in prefix
                        ),
                        "followers": sum(s.num_followers for s in prefix),
                        "followers_series": [s.num_followers for s in prefix],
                    }
                )
    _SWEEP_CACHE[key] = table
    return table


def _sweep_vary_l(profile: BenchProfile) -> ExperimentTable:
    """Run all trackers for every anchor budget in the grid (Figures 7, 8, 10)."""
    key = (profile.name, f"vary_l_scale{profile.scale}")
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    problems: List[AVTProblem] = []
    for dataset in profile.datasets:
        for budget in profile.budget_grid:
            problems.append(
                build_problem(
                    dataset,
                    budget=budget,
                    num_snapshots=profile.num_snapshots,
                    scale=profile.scale,
                    seed=profile.seed,
                )
            )
    _SWEEP_CACHE[key] = run_sweep(problems)
    return _SWEEP_CACHE[key]


# ---------------------------------------------------------------------------
# Figures 3-11
# ---------------------------------------------------------------------------
def experiment_fig03_time_vs_k(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 3: running time of OLAK / Greedy / IncAVT / RCM when k varies."""
    table = _sweep_vary_k(profile)
    report = format_series(table, x="k", y="time_s", title="Figure 3 — time (s) vs k")
    report += "\n\n" + format_speedup_summary(table, baseline="OLAK", metric="time_s")
    return table, report


def experiment_fig04_visited_vs_k(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 4: visited candidate vertices when k varies (OLAK, Greedy, IncAVT)."""
    table = _sweep_vary_k(profile)
    report = format_series(
        table, x="k", y="visited", title="Figure 4 — visited candidate vertices vs k"
    )
    return table, report


def experiment_fig05_time_vs_T(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 5: cumulative running time as the number of snapshots T grows."""
    table = _sweep_vary_T(profile)
    report = format_series(table, x="T", y="time_s", title="Figure 5 — time (s) vs T")
    report += "\n\n" + format_speedup_summary(table, baseline="OLAK", metric="time_s")
    return table, report


def experiment_fig06_visited_vs_T(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 6: cumulative visited candidate vertices as T grows."""
    table = _sweep_vary_T(profile)
    report = format_series(
        table, x="T", y="visited", title="Figure 6 — visited candidate vertices vs T"
    )
    return table, report


def experiment_fig07_time_vs_l(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 7: running time when the anchor budget l varies."""
    table = _sweep_vary_l(profile)
    report = format_series(table, x="l", y="time_s", title="Figure 7 — time (s) vs l")
    report += "\n\n" + format_speedup_summary(table, baseline="OLAK", metric="time_s")
    return table, report


def experiment_fig08_visited_vs_l(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 8: visited candidate vertices when the anchor budget l varies."""
    table = _sweep_vary_l(profile)
    report = format_series(
        table, x="l", y="visited", title="Figure 8 — visited candidate vertices vs l"
    )
    return table, report


def experiment_fig09_followers_vs_T(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 9: cumulative follower count as T grows (effectiveness)."""
    table = _sweep_vary_T(profile)
    report = format_series(
        table, x="T", y="followers", title="Figure 9 — total followers vs T"
    )
    return table, report


def experiment_fig10_followers_vs_l(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 10: total followers when the anchor budget l varies."""
    table = _sweep_vary_l(profile)
    report = format_series(
        table, x="l", y="followers", title="Figure 10 — total followers vs l"
    )
    return table, report


def experiment_fig11_followers_vs_k(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 11: total followers when k varies."""
    table = _sweep_vary_k(profile)
    report = format_series(
        table, x="k", y="followers", title="Figure 11 — total followers vs k"
    )
    return table, report


# ---------------------------------------------------------------------------
# Case study (Figure 12, Table 4)
# ---------------------------------------------------------------------------
def _case_study_problem(profile: BenchProfile) -> AVTProblem:
    return build_problem(
        profile.case_study_dataset,
        k=profile.case_study_k,
        budget=profile.case_study_budget,
        num_snapshots=profile.num_snapshots,
        scale=profile.scale,
        seed=profile.seed,
    )


def experiment_fig12_case_study(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Figure 12: followers per snapshot vs the brute-force optimum (eu-core, l=2, k=3)."""
    problem = _case_study_problem(profile)
    table = run_sweep([problem], trackers=default_trackers(include_brute_force=True))
    report = format_followers_series(
        table, title="Figure 12 — followers per snapshot (case study, l=2, k=3)"
    )
    return table, report


def experiment_table4_anchor_selection(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Table 4: anchors and followers selected at the first snapshot by every solver."""
    problem = _case_study_problem(profile)
    first_snapshot = problem.evolving_graph.base
    k, budget = problem.k, problem.budget
    solvers = [
        BruteForceAnchoredKCore(first_snapshot, k, budget),
        OLAKAnchoredKCore(first_snapshot, k, budget),
        GreedyAnchoredKCore(first_snapshot, k, budget),
        RCMAnchoredKCore(first_snapshot, k, budget),
    ]
    table = ExperimentTable()
    for solver in solvers:
        outcome = solver.select()
        table.append(
            {
                "dataset": problem.name,
                "algorithm": outcome.algorithm,
                "k": k,
                "l": budget,
                "anchors": sorted(outcome.anchors, key=tie_break_key),
                "followers": sorted(outcome.followers, key=tie_break_key),
                "num_followers": outcome.num_followers,
                "time_s": round(outcome.stats.runtime_seconds, 6),
            }
        )
    # IncAVT coincides with Greedy at the first snapshot (it bootstraps from it);
    # record it explicitly so the table has the same five rows as the paper.
    greedy_row = table.filter(algorithm="Greedy").rows()[0]
    incavt_row = dict(greedy_row)
    incavt_row["algorithm"] = "IncAVT"
    table.append(incavt_row)
    report = "Table 4 — selected anchored vertices and followers (first snapshot)\n"
    report += format_table(
        table.rows(),
        columns=["algorithm", "anchors", "followers", "num_followers", "time_s"],
    )
    return table, report


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)
# ---------------------------------------------------------------------------
def experiment_ablation_pruning(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Ablation: Theorem-3 candidate pruning and shell-local follower computation.

    Compares the full Greedy tracker against a variant with order pruning
    disabled and against the OLAK adaptation (no pruning, whole-shell scans).
    """
    dataset = profile.datasets[0]
    problem = build_problem(
        dataset,
        budget=profile.budget,
        num_snapshots=min(profile.num_snapshots, 6),
        scale=profile.scale,
        seed=profile.seed,
    )
    trackers = [
        TrackerSpec("Greedy(pruned)", lambda: GreedyTracker(order_pruning=True)),
        TrackerSpec("Greedy(unpruned)", lambda: GreedyTracker(order_pruning=False)),
    ]
    table = run_sweep([problem], trackers=trackers)
    report = "Ablation — Theorem-3 pruning\n" + format_table(
        table.rows(),
        columns=["dataset", "algorithm", "k", "l", "T", "time_s", "visited", "candidates", "followers"],
    )
    return table, report


def experiment_ablation_maintenance(profile: BenchProfile) -> Tuple[ExperimentTable, str]:
    """Ablation: incremental core maintenance vs per-snapshot restarts inside IncAVT."""
    dataset = profile.datasets[0]
    problem = build_problem(
        dataset,
        budget=profile.budget,
        num_snapshots=min(profile.num_snapshots, 6),
        scale=profile.scale,
        seed=profile.seed,
    )
    trackers = [
        TrackerSpec("IncAVT(incremental)", IncAVTTracker),
        TrackerSpec(
            "IncAVT(rebuild)", lambda: IncAVTTracker(restart_churn_ratio=0.0)
        ),
    ]
    table = run_sweep([problem], trackers=trackers)
    report = "Ablation — incremental maintenance vs per-snapshot rebuild\n" + format_table(
        table.rows(),
        columns=["dataset", "algorithm", "k", "l", "T", "time_s", "visited", "followers"],
    )
    return table, report


#: Registry of every reproducible experiment, keyed by the identifier used by
#: the CLI and the benchmark modules.
EXPERIMENTS: Dict[str, Callable[[BenchProfile], Tuple[ExperimentTable, str]]] = {
    "fig03": experiment_fig03_time_vs_k,
    "fig04": experiment_fig04_visited_vs_k,
    "fig05": experiment_fig05_time_vs_T,
    "fig06": experiment_fig06_visited_vs_T,
    "fig07": experiment_fig07_time_vs_l,
    "fig08": experiment_fig08_visited_vs_l,
    "fig09": experiment_fig09_followers_vs_T,
    "fig10": experiment_fig10_followers_vs_l,
    "fig11": experiment_fig11_followers_vs_k,
    "fig12": experiment_fig12_case_study,
    "table4": experiment_table4_anchor_selection,
    "ablation_pruning": experiment_ablation_pruning,
    "ablation_maintenance": experiment_ablation_maintenance,
}


def get_experiment(name: str) -> Callable[[BenchProfile], Tuple[ExperimentTable, str]]:
    """Return the experiment function registered under ``name``."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ParameterError(f"unknown experiment {name!r}; known experiments: {known}") from None
