"""Shared machinery for the benchmark harness.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper.  The pytest-benchmark fixture measures the end-to-end cost of the
experiment (one round — these are minutes-long sweeps, not microbenchmarks),
and the produced report is both printed and written to
``benchmarks/results/<experiment>.txt`` so it survives output capturing.

Profiles
--------
The experiments honour ``AVT_BENCH_PROFILE`` (``quick`` by default, ``medium``
or ``full`` for larger runs) and ``AVT_BENCH_SCALE`` for ad-hoc scale
overrides; see :mod:`repro.bench.experiments`.

Run benches by naming their files (``python -m pytest
benchmarks/bench_fig03_time_vs_k.py ...``): ``pytest benchmarks/`` collects
no tests, because nothing configures pytest to collect ``bench_*.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import BenchProfile, resolve_profile

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_profile() -> BenchProfile:
    """The active benchmark profile (quick / medium / full)."""
    return resolve_profile()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where the per-experiment text reports are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_report(results_dir: Path):
    """Return a callable that persists an experiment report (and its CSV rows)."""

    def _record(name: str, report: str, csv_text: str = "") -> None:
        (results_dir / f"{name}.txt").write_text(report + "\n", encoding="utf-8")
        if csv_text:
            (results_dir / f"{name}.csv").write_text(csv_text, encoding="utf-8")
        print()
        print(report)

    return _record
