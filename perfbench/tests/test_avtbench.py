"""Tests of the benchmark itself, at smoke size.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from avtbench.environment import forbidden_variables  # noqa: E402
from avtbench.layers import LAYER_NAMES, METHOD_LAYERS, LayerTracer, _backend_classes  # noqa: E402
from avtbench.measure import measure  # noqa: E402
from avtbench.results import END_TO_END, per_layer_spec  # noqa: E402
from avtbench.workloads import WORKLOADS, IngestConfig, MixedConfig, TrackConfig  # noqa: E402

SMOKE = {
    "track": TrackConfig(num_vertices=1500, num_edges=4500, snapshots_per_second=4, setups=1, check_every=3),
    "engine-mixed": MixedConfig(num_vertices=400, num_edges=1200, events_per_burst=16, bursts_per_second=3),
    "engine-ingest": IngestConfig(num_vertices=600, num_edges=1800, events_per_second=300, cycle_seconds=1),
}


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    measurement = measure(workload, seed=3, seconds=2, trace=False, work_dir=tmp_path, config=SMOKE[workload])
    assert measurement.failed == 0 and measurement.attempted > 0
    assert list(measurement.metrics) == [name for name, *_ in END_TO_END]
    for name, unit, _better, _bound in END_TO_END:
        assert measurement.metrics[name]["unit"] == unit
        assert measurement.metrics[name]["value"] > 0, name
    (run,) = measurement.runs
    assert "error_rate" in "\n".join(run.report_lines(measurement.speed))


#: Modules that bind ``compute_followers`` by ``from``-import.
FOLLOWER_MODULES = ("repro.anchored.followers", "repro.avt.incremental", "repro.engine.engine")


def _entry_points():
    """``(owner, attribute) -> object`` of every entry point a traced run wraps, read directly."""
    points = {}
    for _name, owner, methods, _observe in METHOD_LAYERS:
        for method in methods:
            points[owner, method] = vars(owner)[method]
    for cls in _backend_classes():
        points[cls, "build_core_index"] = vars(cls)["build_core_index"]
    for module in FOLLOWER_MODULES:
        points[sys.modules[module], "compute_followers"] = vars(sys.modules[module])["compute_followers"]
    return points


def test_tracer_wraps_every_binding_of_compute_followers():
    tracer = LayerTracer()
    with tracer:
        owners = {owner.__name__ for owner, attribute, _ in tracer.patched_targets() if attribute == "compute_followers"}
    assert set(FOLLOWER_MODULES) <= owners


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_traced_run_restores_wrapped_functions_and_bounds_self_time(workload, tmp_path):
    before = _entry_points()
    measurement = measure(workload, seed=4, seconds=2, trace=True, work_dir=tmp_path, config=SMOKE[workload])
    assert measurement.failed == 0
    assert [name for name, *_ in per_layer_spec()] == list(measurement.metrics)

    assert measurement.tracer.patched_targets() == []
    after = _entry_points()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key

    metrics = {name: entry["value"] for name, entry in measurement.metrics.items()}
    wall = metrics["trace.wall_s"]
    self_times = [metrics[f"{name}.self_s"] for name in LAYER_NAMES]
    assert all(value >= 0 for value in self_times)
    assert sum(self_times) <= wall
    assert metrics["trace.unattributed_s"] >= 0


def test_track_reports_layers_per_incavt_snapshot(tmp_path):
    measurement = measure("track", seed=5, seconds=2, trace=True, work_dir=tmp_path, config=SMOKE["track"])
    metrics = {name: entry["value"] for name, entry in measurement.metrics.items()}
    assert metrics["cores.apply_delta.calls"] > 0
    assert metrics["track.incavt.apply_delta_ms_per_snapshot"] > 0
    assert metrics["track.incavt.compute_followers_ms_per_snapshot"] > 0


def test_environment_guard_names_each_forbidden_variable():
    environ = {
        "PATH": "/bin",
        "REPRO_TRACE": "1",
        "REPRO_CALIBRATION": "table.json",
        "REPRO_FAULTS": "shard.op:action=crash",
        "REPRO_SHARD_EXECUTOR": "process",
        "REPRO_DISABLE_NUMPY": "1",
        "REPRO_FLIGHT_DIR": "dumps",
    }
    assert forbidden_variables(environ) == [
        "REPRO_CALIBRATION",
        "REPRO_DISABLE_NUMPY",
        "REPRO_FAULTS",
        "REPRO_SHARD_EXECUTOR",
        "REPRO_TRACE",
    ]


def _run_script(root: Path, *extra: str, env=None) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", "track", "--seed", "1", "--seconds", "1", "--trace", "0"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=120, env=env)


def test_script_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".run-*"))
    completed = _run_script(tmp_path)
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())


def test_script_refuses_a_forbidden_environment():
    completed = _run_script(BENCH_DIR.parent, env={"PATH": "/usr/bin:/bin", "REPRO_FAULTS": "shard.op:action=crash"})
    assert completed.returncode == 2
    assert "REPRO_FAULTS" in completed.stderr
    assert completed.stdout == ""


def test_digest_is_a_function_of_the_seed(tmp_path):
    first = measure("engine-mixed", seed=6, seconds=1, trace=False, work_dir=tmp_path, config=SMOKE["engine-mixed"])
    again = measure("engine-mixed", seed=6, seconds=1, trace=False, work_dir=tmp_path, config=SMOKE["engine-mixed"])
    other = measure("engine-mixed", seed=7, seconds=1, trace=False, work_dir=tmp_path, config=SMOKE["engine-mixed"])
    assert first.runs[0].digest == again.runs[0].digest != other.runs[0].digest


def test_benchmark_json_declares_what_the_code_reports():
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [tuple(entry.values()) for entry in declared["end_to_end"]] == [tuple(spec) for spec in END_TO_END]
    assert [tuple(entry.values()) for entry in declared["per_layer"]] == [tuple(spec) for spec in per_layer_spec()]
    assert [entry["name"] for entry in declared["workloads"]] == list(WORKLOADS)
