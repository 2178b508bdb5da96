"""Pluggable exporters for spans and metric snapshots.

Three output formats, matching the three consumers the observability layer
serves:

* **JSON lines** (machine replay / trace viewers): one span or metric dict per
  line, written either streaming via :class:`JsonLinesSpanSink` (registered as
  a tracer sink) or in one shot via :func:`write_spans_jsonl`.
* **Prometheus text exposition** (scrapers / load generators):
  :func:`to_prometheus` renders a registry snapshot, including cumulative
  ``_bucket``/``_sum``/``_count`` series for histograms.
* **Human summaries** stay where they always were (``EngineStats.summary()``
  et al.): they read the stats' plain attributes, so they need no exporter.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Any, Dict, Iterable, List, Union

from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "JsonLinesSpanSink",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "to_prometheus",
    "write_metrics",
]

SnapshotLike = Union[MetricsRegistry, Iterable[Dict[str, Any]]]


def _as_snapshot(metrics: SnapshotLike) -> List[Dict[str, Any]]:
    if isinstance(metrics, MetricsRegistry):
        return metrics.snapshot()
    return list(metrics)


class JsonLinesSpanSink:
    """Streaming span sink: one JSON object per line, flushed per span.

    Register with ``tracer.add_sink(sink)``; call :meth:`close` (or use as a
    context manager) when done.  Keeps a span counter so callers can report
    how much was captured.
    """

    def __init__(self, target: Union[str, Path, IO[str]]) -> None:
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns_file = True
        self.spans_written = 0

    def __call__(self, span_dict: Dict[str, Any]) -> None:
        self._file.write(json.dumps(span_dict, default=str) + "\n")
        self.spans_written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "JsonLinesSpanSink":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False


def write_spans_jsonl(spans: Iterable[Dict[str, Any]], path: Union[str, Path]) -> int:
    """Write already-collected span dicts to ``path``; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span_dict in spans:
            handle.write(json.dumps(span_dict, default=str) + "\n")
            count += 1
    return count


def read_spans_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a JSON-lines span file back into span dicts (tests, tooling)."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def _prom_name(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"repro_{cleaned}"


def _prom_labels(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: Any) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def to_prometheus(metrics: SnapshotLike) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    for entry in _as_snapshot(metrics):
        name = _prom_name(entry["name"])
        kind = entry.get("type", "counter")
        labels = entry.get("labels") or {}
        if kind == "histogram":
            if seen_types.get(name) != "histogram":
                lines.append(f"# TYPE {name} histogram")
                seen_types[name] = "histogram"
            value = entry.get("value") or {}
            buckets = {int(k): int(v) for k, v in (value.get("buckets") or {}).items()}
            cumulative = 0
            for index in sorted(buckets):
                cumulative += buckets[index]
                bound = Histogram.bucket_upper_bound(index)
                le = 'le="{:.9g}"'.format(bound)
                lines.append(f"{name}_bucket{_prom_labels(labels, le)} {cumulative}")
            inf_le = 'le="+Inf"'
            lines.append(f"{name}_bucket{_prom_labels(labels, inf_le)} {value.get('count', 0)}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {_format_value(value.get('sum', 0.0))}")
            lines.append(f"{name}_count{_prom_labels(labels)} {value.get('count', 0)}")
        else:
            prom_kind = "gauge" if kind == "gauge" else "counter"
            if seen_types.get(name) != prom_kind:
                lines.append(f"# TYPE {name} {prom_kind}")
                seen_types[name] = prom_kind
            lines.append(f"{name}{_prom_labels(labels)} {_format_value(entry.get('value', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_metrics(metrics: SnapshotLike, path: Union[str, Path]) -> str:
    """Write a metrics snapshot to ``path``; format chosen by extension.

    ``.prom`` / ``.txt`` → Prometheus text exposition; anything else → a JSON
    array in the unified ``{name, type, value, labels}`` schema.  Returns the
    format written (``"prometheus"`` or ``"json"``).
    """
    path = Path(path)
    snapshot = _as_snapshot(metrics)
    if path.suffix in {".prom", ".txt"}:
        path.write_text(to_prometheus(snapshot), encoding="utf-8")
        return "prometheus"
    path.write_text(json.dumps(snapshot, indent=2, default=str) + "\n", encoding="utf-8")
    return "json"
