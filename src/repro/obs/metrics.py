"""Unified metrics registry: counters, gauges and log-bucketed histograms.

Every metric emits the same snapshot schema::

    {"name": "engine.queries", "type": "counter", "value": 12, "labels": {}}

The process-wide registry (:func:`global_registry`) holds the tracer's
``obs.*`` bookkeeping, and the exporters render any registry or snapshot.
The stats objects are plain data and build these rows only on export:
:meth:`~repro.engine.stats.EngineStats.snapshot` writes its counters in this
schema and owns its latency :class:`Histogram` objects directly.

Histograms are log-bucketed (geometric bucket boundaries) so p50/p95/p99 are
derivable from the snapshot without retaining raw samples.

Design constraints honoured here:

* **No locks.**  Metric mutation is a single attribute update protected by the
  GIL.
* **Cheap hot path.**  Callers bind metric objects once and then touch only
  ``metric.value``: no registry lookup per increment.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
]

Number = Union[int, float]
LabelKey = Tuple[Tuple[str, str], ...]

#: Lowest histogram bucket upper bound (100ns — below any latency we time).
_BUCKET_BASE = 1e-7
#: Geometric growth factor between bucket boundaries.  sqrt(2) gives ~2x
#: resolution per octave, tight enough that p95/p99 read from bucket upper
#: bounds stay within ~41% of the true value — plenty for dashboards/floors.
_BUCKET_GROWTH = math.sqrt(2.0)
_LOG_GROWTH = math.log(_BUCKET_GROWTH)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic (by convention) numeric metric; also used as an accumulator."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount

    def set(self, value: Number) -> None:
        """Overwrite the value (how a gauge is set)."""
        self.value = value

    def to_metric(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind, "value": self.value, "labels": dict(self.labels)}

    def restore(self, value: Any) -> None:
        self.value = value


class Gauge(Counter):
    """Point-in-time numeric metric (same shape as a counter, settable)."""

    __slots__ = ()
    kind = "gauge"


class Histogram:
    """Log-bucketed histogram with derivable quantiles.

    Buckets are geometric: bucket ``i`` holds observations in
    ``(_BUCKET_BASE * growth**(i-1), _BUCKET_BASE * growth**i]``; bucket 0
    holds everything at or below ``_BUCKET_BASE``.  Only non-empty buckets are
    stored (sparse dict), so an idle histogram costs a few attributes.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max", "buckets", "exemplars")
    kind = "histogram"

    def __init__(self, name: str, labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}
        #: Per-bucket exemplar: ``{bucket_index: (value, trace_id)}`` for the
        #: slowest recent observation that carried a trace id, so a p99 bucket
        #: links straight to an inspectable trace.
        self.exemplars: Dict[int, Tuple[float, str]] = {}

    @staticmethod
    def bucket_index(value: float) -> int:
        if value <= _BUCKET_BASE:
            return 0
        return max(0, int(math.ceil(math.log(value / _BUCKET_BASE) / _LOG_GROWTH)))

    @staticmethod
    def bucket_upper_bound(index: int) -> float:
        return _BUCKET_BASE * (_BUCKET_GROWTH ** index)

    def observe(self, value: float, trace_id: Optional[str] = None) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if trace_id is not None:
            # Keep the slowest observation per bucket; ``>=`` so the exemplar
            # is the most *recent* of equally slow observations.
            held = self.exemplars.get(index)
            if held is None or value >= held[0]:
                self.exemplars[index] = (value, trace_id)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile ``q`` in [0, 1] from bucket upper bounds.

        Returns 0.0 for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return self.bucket_upper_bound(index)
        return self.bucket_upper_bound(max(self.buckets))

    def percentiles(self) -> Dict[str, float]:
        """The standard dashboard trio, derived from the buckets."""
        return {"p50": self.quantile(0.50), "p95": self.quantile(0.95), "p99": self.quantile(0.99)}

    def to_metric(self) -> Dict[str, Any]:
        value: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(index): count for index, count in sorted(self.buckets.items())},
        }
        if self.exemplars:
            value["exemplars"] = {
                str(index): {"value": observed, "trace_id": trace_id}
                for index, (observed, trace_id) in sorted(self.exemplars.items())
            }
        return {"name": self.name, "type": self.kind, "value": value, "labels": dict(self.labels)}

    def restore(self, value: Dict[str, Any]) -> None:
        self.count = int(value.get("count", 0))
        self.sum = float(value.get("sum", 0.0))
        self.min = value["min"] if value.get("min") is not None else math.inf
        self.max = value["max"] if value.get("max") is not None else -math.inf
        self.buckets = {int(index): int(count) for index, count in value.get("buckets", {}).items()}
        self.exemplars = {
            int(index): (float(entry["value"]), str(entry["trace_id"]))
            for index, entry in value.get("exemplars", {}).items()
        }


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with a uniform snapshot schema.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice with
    the same name and labels returns the same object, so callers can bind
    metrics once and mutate them without further lookups.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelKey], Metric] = {}

    # -- creation ------------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def _get_or_create(self, cls: Callable[..., Metric], name: str, labels: Dict[str, str]) -> Any:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels)
            self._metrics[key] = metric
        elif type(metric) is not cls:
            raise TypeError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    # -- access --------------------------------------------------------
    def get(self, name: str, **labels: str) -> Optional[Metric]:
        return self._metrics.get((name, _label_key(labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Metric]:
        return iter(self._metrics.values())

    # -- serialisation -------------------------------------------------
    def snapshot(self, prefix: str = "") -> List[Dict[str, Any]]:
        """All metrics in the unified ``{name, type, value, labels}`` schema."""
        return [
            metric.to_metric()
            for metric in self._metrics.values()
            if metric.name.startswith(prefix)
        ]

    def restore(self, snapshot: Iterable[Dict[str, Any]]) -> None:
        """Load metric values from a :meth:`snapshot` payload (get-or-create)."""
        for entry in snapshot:
            name = entry["name"]
            labels = entry.get("labels") or {}
            kind = entry.get("type", "counter")
            if kind == "histogram":
                metric: Metric = self.histogram(name, **labels)
            elif kind == "gauge":
                metric = self.gauge(name, **labels)
            else:
                metric = self.counter(name, **labels)
            metric.restore(entry.get("value", 0))

    def to_json(self, **dump_kwargs: Any) -> str:
        return json.dumps(self.snapshot(), **dump_kwargs)


#: Process-wide registry: tracer bookkeeping, CLI exports, bench embedding.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (tracer internals, default bench snapshot)."""
    return _GLOBAL
