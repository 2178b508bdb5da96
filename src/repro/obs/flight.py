"""Always-on flight recorder: a bounded ring of recent spans + metric deltas.

Production incidents rarely happen while tracing is enabled.  The flight
recorder closes that gap cheaply: it is installed as a sink on the default
tracer at import, so whenever tracing *is* on it retains the last
``capacity`` finished spans in a ``deque(maxlen=...)`` ring; while tracing is
disabled the sink simply never fires, so the always-on recorder costs nothing
on the hot path (the disabled-tracing fast path is unchanged) and the ring
keeps whatever it last saw — a crash shortly after tracing is toggled off
still dumps the final spans.

A *dump* freezes the ring plus the metric deltas since the previous dump
(counters/gauges and histogram count/sum from the global registry) together
with a reason and context.  Dumps happen automatically on:

* span error tags (any sinked span whose attrs carry ``error``), and
* engine checkpoint save/restore failures,

and manually via :meth:`FlightRecorder.dump`.  The engine exposes the live
record through ``engine.flight_record()``.  Set ``REPRO_FLIGHT_DIR`` to also
write each dump as a JSON file.

Injected faults (:mod:`repro.resilience`) land in the ring as synthetic
span-shaped events via :meth:`FlightRecorder.record_event` — independent of
the tracing flag, so a fault-injection run's dump always shows *which*
faults fired before the failure being diagnosed.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs import tracer as tracer_module
from repro.obs.metrics import Histogram, global_registry

__all__ = ["FlightRecorder", "default_recorder"]

logger = logging.getLogger("repro.obs")

#: Spans retained in the default recorder's ring.
DEFAULT_CAPACITY = 2048
#: Dumps retained in memory (oldest evicted first).
DEFAULT_MAX_DUMPS = 8

MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _flatten_registry() -> Dict[MetricKey, float]:
    """Numeric view of the global registry for delta computation.

    Histograms contribute ``<name>.count`` and ``<name>.sum`` entries so a
    dump shows "47 more observations, 1.3s more latency" without carrying
    full bucket maps.
    """
    flat: Dict[MetricKey, float] = {}
    for metric in global_registry().metrics():
        labels = tuple(sorted(metric.labels.items()))
        if isinstance(metric, Histogram):
            flat[(f"{metric.name}.count", labels)] = float(metric.count)
            flat[(f"{metric.name}.sum", labels)] = float(metric.sum)
        else:
            flat[(metric.name, labels)] = float(metric.value)
    return flat


class FlightRecorder:
    """Bounded ring of recent spans with metric-delta dumps.

    Registered as a tracer sink (callable); every finished span lands in the
    ring, spans tagged with an ``error`` attr trigger an automatic dump.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        max_dumps: int = DEFAULT_MAX_DUMPS,
        dump_dir: Optional[str] = None,
        auto_dump_on_error: bool = True,
    ) -> None:
        self.capacity = capacity
        self.auto_dump_on_error = auto_dump_on_error
        self.dump_dir = dump_dir if dump_dir is not None else os.environ.get("REPRO_FLIGHT_DIR") or None
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._dumps: Deque[Dict[str, Any]] = deque(maxlen=max_dumps)
        self._baseline = _flatten_registry()
        self._dump_seq = 0
        self._installed_on: Optional[tracer_module.Tracer] = None

    # -- sink protocol -------------------------------------------------
    def __call__(self, span_dict: Dict[str, Any]) -> None:
        self._ring.append(span_dict)
        if self.auto_dump_on_error:
            attrs = span_dict.get("attrs") or {}
            error = attrs.get("error")
            if error:
                self.dump(
                    f"span-error:{span_dict.get('name', '?')}",
                    error=error,
                    span_id=span_dict.get("span_id"),
                    trace_id=span_dict.get("trace_id"),
                )

    def install(self, tracer: Optional[tracer_module.Tracer] = None) -> "FlightRecorder":
        """Attach as a sink (idempotent); defaults to the default tracer."""
        target = tracer if tracer is not None else tracer_module.default_tracer()
        if self._installed_on is not target:
            self.uninstall()
            target.add_sink(self)
            self._installed_on = target
        return self

    def uninstall(self) -> None:
        if self._installed_on is not None:
            self._installed_on.remove_sink(self)
            self._installed_on = None

    def record_event(self, name: str, **attrs: Any) -> Dict[str, Any]:
        """Append a synthetic span-shaped event to the ring, tracing or not.

        Injected faults must be visible in a post-mortem dump even when
        tracing was off at the time — a real span would never have reached
        the sink.  The event mimics the span dict
        shape (``name`` + ``attrs`` + timestamps) so the dump analyzers and
        the JSON exporters treat it uniformly; ``event=True`` marks it as
        zero-duration bookkeeping rather than a measured interval.
        """
        now = time.time()
        event = {
            "name": name,
            "attrs": {"event": True, **attrs},
            "start": now,
            "end": now,
            "pid": os.getpid(),
        }
        self._ring.append(event)
        return event

    # -- record / dump -------------------------------------------------
    def metric_deltas(self) -> List[Dict[str, Any]]:
        """Metric changes since construction / the last dump, sorted by name."""
        current = _flatten_registry()
        deltas: List[Dict[str, Any]] = []
        for key in sorted(set(current) | set(self._baseline)):
            delta = current.get(key, 0.0) - self._baseline.get(key, 0.0)
            if delta:
                name, labels = key
                deltas.append({"name": name, "labels": dict(labels), "delta": delta})
        return deltas

    def record(self) -> Dict[str, Any]:
        """The live flight record: ring contents, metric deltas, past dumps."""
        return {
            "captured_at": time.time(),
            "capacity": self.capacity,
            "spans": list(self._ring),
            "metric_deltas": self.metric_deltas(),
            "dumps": list(self._dumps),
        }

    def dump(self, reason: str, **context: Any) -> Dict[str, Any]:
        """Freeze the ring + metric deltas; rolls the delta baseline."""
        self._dump_seq += 1
        payload = {
            "reason": reason,
            "context": context,
            "seq": self._dump_seq,
            "pid": os.getpid(),
            "captured_at": time.time(),
            "spans": list(self._ring),
            "metric_deltas": self.metric_deltas(),
        }
        self._baseline = _flatten_registry()
        self._dumps.append(payload)
        logger.warning(
            "flight record dumped (reason=%s): %d spans, %d metric deltas",
            reason,
            len(payload["spans"]),
            len(payload["metric_deltas"]),
        )
        if self.dump_dir:
            try:
                os.makedirs(self.dump_dir, exist_ok=True)
                path = os.path.join(
                    self.dump_dir, f"flight-{os.getpid()}-{self._dump_seq}.json"
                )
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle, default=repr)
                logger.warning("flight record written to %s", path)
            except OSError as error:  # never let diagnostics take the process down
                logger.error("failed to write flight record: %s", error)
        return payload

    @property
    def dumps(self) -> List[Dict[str, Any]]:
        return list(self._dumps)

    def clear(self) -> None:
        """Empty the ring and dumps and re-baseline the metric deltas."""
        self._ring.clear()
        self._dumps.clear()
        self._baseline = _flatten_registry()

    def __len__(self) -> int:
        return len(self._ring)


#: The always-on recorder, installed on the default tracer at import.
_DEFAULT = FlightRecorder().install()


def default_recorder() -> FlightRecorder:
    return _DEFAULT
