"""What one workload pass recorded, and how it becomes the reported metrics."""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from avtbench.layers import LAYER_NAMES, LayerTracer
from avtbench.speed import SpeedProbe

#: ``(name, unit, better, bound)`` of the end-to-end metrics every workload
#: reports from an untraced pass.  What "op" and "exact solve" mean on each
#: workload is in the README beside this package.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("op_rate_per_s", "1/s", "higher", 0.25),
    ("exact_solve_p50_ms", "ms", "lower", 0.25),
)

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(samples: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with 10 samples beyond it.

    With fewer than 11 samples this is the maximum, reported as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _normalized(spans: List[Tuple[float, float]], probe: Optional[SpeedProbe]) -> List[float]:
    if probe is None:
        return [seconds for _, seconds in spans]
    return [seconds / probe.slowdown(start, start + seconds) for start, seconds in spans]


@dataclass(frozen=True)
class Named:
    """One of a workload's own named metrics, derived from its timed series.

    ``kind`` is ``p50_ms``, ``tail_ms`` or ``median_s`` of ``series``,
    ``rate`` (``count`` over the seconds of the ``rate_series``) or ``value``.
    """

    name: str
    kind: str
    series: str = ""
    rate_series: Tuple[str, ...] = ()
    count: str = ""
    value: float = 0.0
    unit: str = ""
    note: str = ""


@dataclass
class WorkloadRun:
    """The raw record of one pass over a workload.

    Every timed region lands in a series as ``(start, seconds)``, so it can
    be normalised by the machine speed around it; correctness checks run
    outside every timed region.  ``roles`` names the series behind the
    end-to-end metrics: ``setup``, ``op``, ``exact`` and ``rate``, the last
    one as ``(count, series names)``.
    """

    workload: str
    roles: Dict[str, Any] = field(default_factory=dict)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=lambda: defaultdict(list))
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    named: List[Named] = field(default_factory=list)
    #: Every timed region once, nested samples (a flush inside an ingest
    #: call, a priming query inside set-up) excluded.
    wall: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Per-layer metrics only the workload can derive (snapshot residuals…).
    layer_extras: Dict[str, float] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    _digest: Any = field(default_factory=hashlib.sha256)

    def timed(self, series: str, start: float, seconds: float, nested: bool = False) -> None:
        """Record one timed region of ``series``; ``nested`` ones lie inside another."""
        self.series[series].append((start, seconds))
        if not nested:
            self.wall.append((start, seconds))

    @property
    def wall_seconds(self) -> float:
        return sum(seconds for _, seconds in self.wall)

    def record_answer(self, *fields: Any) -> None:
        """Fold one answer into the bit-for-bit digest."""
        self._digest.update(json.dumps(fields, separators=(",", ":")).encode())
        self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def check(self, ok: bool) -> None:
        """Count one failed correctness check as a failed operation."""
        if not ok:
            self.failed += 1

    # ------------------------------------------------------------------
    def seconds(self, series: str, probe: Optional[SpeedProbe]) -> List[float]:
        """The series' timings, divided by the machine slowdown around each."""
        return _normalized(self.series[series], probe)

    def _rate(self, count: str, series: Tuple[str, ...], probe: Optional[SpeedProbe]) -> float:
        return self.counts[count] / sum(sum(self.seconds(name, probe)) for name in series)

    def normalized_wall(self, probe: Optional[SpeedProbe]) -> float:
        """The pass's wall time, normalised."""
        return sum(_normalized(self.wall, probe))

    def end_to_end(self, probe: Optional[SpeedProbe]) -> Dict[str, float]:
        op = self.seconds(self.roles["op"], probe)
        return {
            "setup_s": statistics.median(self.seconds(self.roles["setup"], probe)),
            "op_p50_ms": statistics.median(op) * 1e3,
            "op_tail_ms": tail(op)[0] * 1e3,
            "op_rate_per_s": self._rate(*self.roles["rate"], probe),
            "exact_solve_p50_ms": statistics.median(self.seconds(self.roles["exact"], probe)) * 1e3,
        }

    def named_values(self, probe: Optional[SpeedProbe]) -> List[Tuple[str, float, str, str]]:
        """``(name, value, unit, note)`` of every named metric plus ``error_rate``."""
        rows = []
        for metric in self.named:
            if metric.kind == "value":
                rows.append((metric.name, metric.value, metric.unit, metric.note))
                continue
            if metric.kind == "rate":
                rows.append((metric.name, self._rate(metric.count, metric.rate_series, probe), "1/s", metric.note))
                continue
            samples = self.seconds(metric.series, probe)
            if metric.kind == "tail_ms":
                value, percentile = tail(samples)
                rows.append((metric.name, value * 1e3, "ms", f"p{percentile:.1f}, n={len(samples)}"))
            elif metric.kind == "p50_ms":
                rows.append((metric.name, statistics.median(samples) * 1e3, "ms", f"n={len(samples)}"))
            else:
                rows.append((metric.name, statistics.median(samples), "s", f"median of {len(samples)}"))
        error_rate = self.failed / self.attempted if self.attempted else 0.0
        rows.append(("error_rate", error_rate, "ratio", f"{self.failed} failed of {self.attempted}"))
        return rows

    def report_lines(self, probe: Optional[SpeedProbe]) -> List[str]:
        """Lines for people: environment, named metrics, raw timings, digest."""
        lines = [f"# environment {json.dumps(self.environment, sort_keys=True)}"]
        if probe is not None:
            lines.append(
                f"# machine slowdown: median {probe.median_slowdown():.3f} over {probe.probes} probes; "
                "the timings below are divided by the slowdown around each"
            )
        for name, value, unit, note in self.named_values(probe):
            suffix = f"  ({note})" if note else ""
            lines.append(f"# {self.workload}.{name} = {value:.6g} {unit}{suffix}")
        raw = self.end_to_end(None)
        lines.append("# raw wall-clock: " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
        lines.append(f"# {self.workload}.answer_digest = sha256:{self.digest}")
        return lines


#: ``(name, unit, better)`` of the per-layer metrics a traced pass reports.
def per_layer_spec() -> List[Tuple[str, str, str]]:
    spec: List[Tuple[str, str, str]] = []
    for name in LAYER_NAMES:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [
        ("cores.apply_delta.touched", "count", "lower"),
        ("cores.apply_delta.visited", "count", "lower"),
        ("anchored.commit_anchor.touched", "count", "lower"),
        ("anchored.index_builds_per_warm_query", "ratio", "lower"),
        ("anchored.gain_cache_hit_ratio", "ratio", "higher"),
        ("avt.incavt_residual.s", "s", "lower"),
        ("track.incavt.apply_delta_ms_per_snapshot", "ms", "lower"),
        ("track.incavt.compute_followers_ms_per_snapshot", "ms", "lower"),
        ("track.incavt.residual_ms_per_snapshot", "ms", "lower"),
        ("engine.ingest.cancel_ratio", "ratio", "lower"),
        ("engine.query.hit", "count", "higher"),
        ("engine.query.warm", "count", "lower"),
        ("engine.query.cold", "count", "lower"),
        ("engine.cache.hit_ratio", "ratio", "higher"),
        ("engine.cache.promotions", "count", "higher"),
        ("engine.cache.invalidations", "count", "lower"),
        ("engine.checkpoint.bytes", "bytes", "lower"),
        ("quality.follower_ratio", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.unattributed_s", "s", "lower"),
    ]
    return spec


def per_layer(
    traced: WorkloadRun, tracer: LayerTracer, untraced: WorkloadRun, probes: Tuple[SpeedProbe, SpeedProbe]
) -> Dict[str, float]:
    """Every per-layer metric of a traced pass; layers a workload never calls read 0.

    Layer seconds are raw wall-clock seconds, comparable with the pass's raw
    wall time; only the overhead, a comparison of two passes, is normalised.
    """
    values: Dict[str, float] = {name: 0.0 for name, _unit, _better in per_layer_spec()}
    for name, layer in tracer.layers.items():
        values[f"{name}.calls"] = layer.calls
        values[f"{name}.s"] = layer.seconds
        values[f"{name}.self_s"] = layer.self_seconds
        for counter, count in layer.counters.items():
            values[f"{name}.{counter}"] = count
    values.update(traced.layer_extras)
    values["trace.wall_s"] = traced.wall_seconds
    values["trace.unattributed_s"] = traced.wall_seconds - tracer.top_level_seconds
    untraced_probe, traced_probe = probes
    overhead = traced.normalized_wall(traced_probe) / untraced.normalized_wall(untraced_probe) - 1.0
    values["trace.overhead_pct"] = 100.0 * overhead
    return values
