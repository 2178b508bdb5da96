"""One measurement: an untraced pass, and with tracing a second, traced pass."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from avtbench.layers import LayerTracer
from avtbench.results import END_TO_END, WorkloadRun, per_layer, per_layer_spec
from avtbench.speed import SpeedProbe
from avtbench.workloads import WORKLOADS, Context


@dataclass
class Measurement:
    runs: List[WorkloadRun]
    #: ``name -> {"value", "unit"}``: end-to-end metrics, or per-layer ones when traced.
    metrics: Dict[str, Dict[str, Any]]
    #: The machine-speed probe of the untraced pass.
    speed: SpeedProbe
    tracer: Optional[LayerTracer] = None

    @property
    def attempted(self) -> int:
        return sum(run.attempted for run in self.runs)

    @property
    def failed(self) -> int:
        return sum(run.failed for run in self.runs)


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path, config: Any = None) -> Measurement:
    """Run ``workload``; ``config`` replaces its default sizes (tests use it)."""
    function, default = WORKLOADS[workload]
    config = config if config is not None else default
    plain = Context(seed, seconds, work_dir)
    untraced = function(plain, config)
    if not trace:
        values = untraced.end_to_end(plain.speed)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
        return Measurement([untraced], metrics, plain.speed)
    with LayerTracer() as tracer:
        observed = Context(seed, seconds, work_dir, tracer)
        traced = function(observed, config)
    if traced.digest != untraced.digest:
        # Tracing must observe, never change, what the library answers.
        traced.failed += 1
    values = per_layer(traced, tracer, untraced, (plain.speed, observed.speed))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}
    return Measurement([untraced, traced], metrics, plain.speed, tracer)
