"""Operational counters for the streaming engine.

The engine distinguishes three ways a query can be answered — a **cache hit**
(no computation at all), a **warm solve** (the IncAVT swap/fill pass over the
carried-forward anchor set) and a **cold solve** (a static solver run from
scratch) — and the counters here record how often each path fired and how long
it took.  The acceptance tests lean on these counters to prove that a repeated
query on an unchanged graph version never invokes a solver.

The counters are plain attributes (``stats.queries += 1``), and the four
per-path latency histograms (p50/p95/p99 derivable) are
:class:`~repro.obs.metrics.Histogram` objects the stats own.  The
``{name, type, value, labels}`` schema of :mod:`repro.obs` is built only on
export, by :meth:`EngineStats.snapshot`: the checkpoint's stats section and
``serve-sim --metrics-out`` read it, and :meth:`EngineStats.from_snapshot`
restores it, ignoring names it does not know.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import Histogram

#: Latency paths with a dedicated histogram (``engine.latency.<path>``).
_LATENCY_PATHS = ("hit", "warm", "cold", "update")

_PREFIX = "engine."


@dataclass
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

    Use :meth:`observe_latency` instead of raw ``*_seconds`` writes where
    possible: it also feeds the per-path latency histogram.  Equality
    compares the counters, not the histograms.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    deltas_applied: int = 0
    edges_inserted: int = 0
    edges_removed: int = 0
    updates_ingested: int = 0
    updates_cancelled: int = 0
    cache_promotions: int = 0
    cache_invalidations: int = 0
    checkpoints_saved: int = 0
    checkpoints_restored: int = 0
    hit_seconds: float = 0.0
    warm_seconds: float = 0.0
    cold_seconds: float = 0.0
    update_seconds: float = 0.0

    def __post_init__(self) -> None:
        self._latency = {
            path: Histogram(f"{_PREFIX}latency.{path}") for path in _LATENCY_PATHS
        }

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
        histogram = self.latency_histogram(path)
        name = f"{path}_seconds"
        setattr(self, name, getattr(self, name) + seconds)
        histogram.observe(seconds, trace_id=trace_id)

    def latency_histogram(self, path: str) -> Histogram:
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
    def snapshot(self) -> List[Dict[str, Any]]:
        """All metrics in the unified ``{name, type, value, labels}`` schema.

        One counter row per attribute, in declaration order, then the four
        per-path latency histograms; :meth:`from_snapshot` restores both.
        """
        entries = [
            {
                "name": _PREFIX + item.name,
                "type": "counter",
                "value": getattr(self, item.name),
                "labels": {},
            }
            for item in fields(self)
        ]
        entries.extend(histogram.to_metric() for histogram in self._latency.values())
        return entries

    @classmethod
    def from_snapshot(cls, state: Iterable[Dict[str, Any]]) -> "EngineStats":
        """Rebuild stats from :meth:`snapshot` output, ignoring unknown names."""
        stats = cls()
        counters = {_PREFIX + item.name: item.name for item in fields(cls)}
        histograms = {histogram.name: histogram for histogram in stats._latency.values()}
        for entry in state:
            name = entry.get("name")
            if name in counters:
                setattr(stats, counters[name], entry.get("value", 0))
            elif name in histograms:
                histograms[name].restore(entry.get("value") or {})
        return stats

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
