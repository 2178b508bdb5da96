"""Operational counters for the streaming engine.

The engine distinguishes three ways a query can be answered — a **cache hit**
(no computation at all), a **warm solve** (the IncAVT swap/fill pass over the
carried-forward anchor set) and a **cold solve** (a static solver run from
scratch) — and the counters here record how often each path fired and how long
it took.  The acceptance tests lean on these counters to prove that a repeated
query on an unchanged graph version never invokes a solver.

Since the ``repro.obs`` subsystem landed, :class:`EngineStats` is a *view*
over a :class:`~repro.obs.metrics.MetricsRegistry` rather than parallel
bookkeeping: every attribute read/write goes straight to a registry counter,
per-path latencies additionally feed log-bucketed histograms (p50/p95/p99
derivable), and :meth:`snapshot` emits the unified
``{name, type, value, labels}`` schema shared with ``SolverStats``.  The
legacy flat-dict snapshot format is still accepted by :meth:`from_snapshot`
so old checkpoints keep restoring; unknown keys (such as counters older
versions wrote) are ignored.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import MetricsRegistry

#: Integer event counters, in declaration order (also the legacy field order).
_COUNT_FIELDS = (
    "queries",
    "cache_hits",
    "cache_misses",
    "warm_solves",
    "cold_solves",
    "deltas_applied",
    "edges_inserted",
    "edges_removed",
    "updates_ingested",
    "updates_cancelled",
    "cache_promotions",
    "cache_invalidations",
    "checkpoints_saved",
    "checkpoints_restored",
)

#: Wall-clock accumulators (floats), one per answer path plus flushes.
_SECONDS_FIELDS = ("hit_seconds", "warm_seconds", "cold_seconds", "update_seconds")

FIELDS = _COUNT_FIELDS + _SECONDS_FIELDS

#: Latency paths with a dedicated histogram (``engine.latency.<path>``).
_LATENCY_PATHS = ("hit", "warm", "cold", "update")

_PREFIX = "engine."


class EngineStats:
    """Counters and latency accumulators for one :class:`StreamingAVTEngine`.

    Attributes
    ----------
    queries:
        Total ``query()`` calls answered.
    cache_hits / cache_misses:
        Result-cache outcomes; ``hits + misses == queries``.
    warm_solves:
        Misses answered by the incremental anchor refresh (no static solver).
    cold_solves:
        Misses answered by a from-scratch static solver run.
    deltas_applied:
        Number of coalesced batches flushed into the core maintainer.
    edges_inserted / edges_removed:
        Effective edge operations applied across all flushed batches.
    updates_ingested:
        Raw edge operations offered to the ingest buffer (before coalescing).
    updates_cancelled:
        Operations the buffer discarded as no-ops or opposing pairs.
    cache_promotions / cache_invalidations:
        Entries re-keyed to the new graph version (their ``k`` was provably
        unaffected by the delta) vs. entries evicted by selective invalidation.
    checkpoints_saved / checkpoints_restored:
        Checkpoint traffic, counted on the engine that performed the call.
    hit_seconds / warm_seconds / cold_seconds / update_seconds:
        Wall-clock accumulators per answer path and for flushes.

    All attributes are registry-backed: ``stats.queries += 1`` increments the
    ``engine.queries`` counter in :attr:`registry`.  Use
    :meth:`observe_latency` instead of raw ``*_seconds`` writes where possible
    — it also feeds the per-path latency histogram.
    """

    __slots__ = ("registry", "_metrics", "_latency")

    def __init__(self, registry: Optional[MetricsRegistry] = None, **values: float) -> None:
        unknown = set(values) - set(FIELDS)
        if unknown:
            raise TypeError(f"unexpected EngineStats field(s): {sorted(unknown)}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = {name: self.registry.counter(_PREFIX + name) for name in FIELDS}
        self._latency = {
            path: self.registry.histogram(f"{_PREFIX}latency.{path}") for path in _LATENCY_PATHS
        }
        for name, value in values.items():
            self._metrics[name].set(value)

    # ------------------------------------------------------------------
    # Instrumentation helpers
    # ------------------------------------------------------------------
    def observe_latency(
        self, path: str, seconds: float, trace_id: Optional[str] = None
    ) -> None:
        """Accumulate ``seconds`` on ``<path>_seconds`` and its histogram.

        ``trace_id`` (when tracing is on) is stored as the bucket's exemplar
        if this is the slowest recent observation for its latency bucket, so
        a p99 bucket links straight to an inspectable trace.
        """
        if path not in self._latency:
            raise ValueError(f"unknown latency path {path!r}")
        self._metrics[f"{path}_seconds"].inc(seconds)
        self._latency[path].observe(seconds, trace_id=trace_id)

    def latency_histogram(self, path: str):
        """The :class:`~repro.obs.metrics.Histogram` behind ``path``."""
        if path not in self._latency:
            raise ValueError(f"unknown latency path {path!r}")
        return self._latency[path]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of queries served straight from the result cache."""
        return self.cache_hits / self.queries if self.queries else 0.0

    @property
    def solver_invocations(self) -> int:
        """Queries that ran any anchor computation (warm or cold)."""
        return self.warm_solves + self.cold_solves

    def mean_latency(self, path: str) -> float:
        """Mean seconds per query for ``path`` in {'hit', 'warm', 'cold'}."""
        counts = {"hit": self.cache_hits, "warm": self.warm_solves, "cold": self.cold_solves}
        seconds = {"hit": self.hit_seconds, "warm": self.warm_seconds, "cold": self.cold_seconds}
        if path not in counts:
            raise ValueError(f"unknown latency path {path!r}")
        return seconds[path] / counts[path] if counts[path] else 0.0

    @property
    def updates_per_second(self) -> float:
        """Effective edge updates applied per second of flush time."""
        applied = self.edges_inserted + self.edges_removed
        return applied / self.update_seconds if self.update_seconds else 0.0

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def values(self) -> Dict[str, float]:
        """Raw field values as a flat dict (legacy snapshot shape)."""
        return {name: self._metrics[name].value for name in FIELDS}

    def snapshot(self) -> List[Dict[str, Any]]:
        """All metrics in the unified ``{name, type, value, labels}`` schema.

        Includes the per-path latency histograms alongside the flat counters;
        :meth:`from_snapshot` restores both (and still accepts the pre-obs
        flat-dict format from old checkpoints).
        """
        entries = [self._metrics[name].to_metric() for name in FIELDS]
        entries.extend(histogram.to_metric() for histogram in self._latency.values())
        return entries

    @classmethod
    def from_snapshot(
        cls,
        state: Union[Dict[str, float], Iterable[Dict[str, Any]]],
        registry: Optional[MetricsRegistry] = None,
    ) -> "EngineStats":
        """Rebuild stats from :meth:`snapshot` output, ignoring unknown keys.

        Accepts both the unified metric-entry list and the legacy
        ``{field: value}`` flat dict (checkpoint format 1 compatibility).
        """
        stats = cls(registry=registry)
        if isinstance(state, dict):
            for name, value in state.items():
                if name in stats._metrics:
                    stats._metrics[name].set(value)
            return stats
        for entry in state:
            name = entry.get("name", "")
            field = name[len(_PREFIX):] if name.startswith(_PREFIX) else name
            if field in stats._metrics:
                stats._metrics[field].restore(entry.get("value", 0))
            elif field.startswith("latency."):
                path = field[len("latency."):]
                if path in stats._latency:
                    stats._latency[path].restore(entry.get("value") or {})
        return stats

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EngineStats):
            return NotImplemented
        return self.values() == other.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={value!r}" for name, value in self.values().items() if value)
        return f"EngineStats({fields})"

    def summary(self) -> str:
        """Multi-line human-readable report (used by the CLI and examples)."""
        lines = [
            f"queries={self.queries} hits={self.cache_hits} "
            f"(hit rate {self.hit_rate:.1%}) warm={self.warm_solves} cold={self.cold_solves}",
            f"updates: ingested={self.updates_ingested} "
            f"cancelled={self.updates_cancelled} applied(+)={self.edges_inserted} "
            f"applied(-)={self.edges_removed} batches={self.deltas_applied} "
            f"({self.updates_per_second:.0f} updates/s)",
            f"cache: promoted={self.cache_promotions} invalidated={self.cache_invalidations}",
            f"latency: hit={self.mean_latency('hit') * 1e3:.3f}ms "
            f"warm={self.mean_latency('warm') * 1e3:.3f}ms "
            f"cold={self.mean_latency('cold') * 1e3:.3f}ms",
        ]
        return "\n".join(lines)


def _make_field_property(name: str) -> property:
    def fget(self: EngineStats) -> float:
        return self._metrics[name].value

    def fset(self: EngineStats, value: float) -> None:
        self._metrics[name].set(value)

    fget.__name__ = name
    return property(fget, fset, doc=f"Registry-backed view of ``engine.{name}``.")


for _name in FIELDS:
    setattr(EngineStats, _name, _make_field_property(_name))
del _name
