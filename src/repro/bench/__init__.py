"""Experiment harness: workloads, sweep runner, per-figure experiments, reporting.

This package reproduces the paper's tables and figures.  Performance is
measured by the repository benchmark, ``perfbench/``.
"""

from repro.bench.experiments import EXPERIMENTS, BenchProfile, get_experiment, resolve_profile
from repro.bench.runner import ExperimentTable, TrackerSpec, default_trackers, run_sweep
from repro.bench.workloads import build_problem

__all__ = [
    "EXPERIMENTS",
    "BenchProfile",
    "get_experiment",
    "resolve_profile",
    "ExperimentTable",
    "TrackerSpec",
    "default_trackers",
    "run_sweep",
    "build_problem",
]
