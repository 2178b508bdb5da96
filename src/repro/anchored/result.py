"""Result and statistics containers shared by the anchored k-core solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.graph.static import Vertex
from repro.obs.metrics import MetricsRegistry

#: Integer counters, in declaration order (also the legacy field order).
_COUNT_FIELDS = (
    "candidates_evaluated",
    "visited_vertices",
    "iterations",
    "maintenance_visited",
    "candidates_recomputed",
    "cache_hits",
)

#: Wall-clock accumulators (floats).
_SECONDS_FIELDS = ("runtime_seconds",)

FIELDS = (
    "candidates_evaluated",
    "visited_vertices",
    "runtime_seconds",
    "iterations",
    "maintenance_visited",
    "candidates_recomputed",
    "cache_hits",
)

_PREFIX = "solver."


class _CommitSeconds(list):
    """Per-commit latency list that mirrors every value into a histogram.

    Behaves exactly like the plain ``List[float]`` it replaced — JSON
    serialisable, comparable to lists, ``append``/``extend`` at the existing
    call sites — while keeping the ``solver.commit_seconds`` histogram (and
    therefore p50/p95/p99) in sync.
    """

    __slots__ = ("_histogram",)

    def __init__(self, histogram, values: Iterable[float] = ()) -> None:
        super().__init__()
        self._histogram = histogram
        self.extend(values)

    def append(self, value: float) -> None:
        list.append(self, value)
        self._histogram.observe(value)

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.append(value)

    def _load(self, values: Iterable[float]) -> None:
        """Restore values without re-observing (buckets restored separately)."""
        list.extend(self, values)


class SolverStats:
    """Instrumentation collected while selecting an anchor set.

    Attributes
    ----------
    candidates_evaluated:
        Number of candidate anchors whose follower sets were computed.
    visited_vertices:
        Total vertices touched by follower computations and candidate scans —
        the quantity plotted in the paper's Figures 4, 6 and 8.  This is the
        *algorithmic* cost model: a memoized evaluation replays the counts
        its cascade reported when it actually ran, so the figure stays
        comparable (and bit-identical) across the memoized and
        full-recompute paths.
    runtime_seconds:
        Wall-clock time spent inside the solver.
    iterations:
        Number of greedy iterations (anchors actually selected).
    maintenance_visited:
        Vertices touched by incremental core maintenance (IncAVT only); kept
        separate from ``visited_vertices`` because the paper's candidate-visit
        figures do not include index-maintenance work.
    candidates_recomputed:
        Candidate evaluations that actually ran a cascade (memoized Greedy
        only re-runs candidates its invalidation marked stale; without
        memoization this equals ``candidates_evaluated``).
    cache_hits:
        Candidate evaluations answered from the memoized gain cache.
    commit_seconds:
        Wall-clock latency of each anchor commit (the index refresh /
        capped commit), in selection order.

    Like :class:`~repro.engine.stats.EngineStats`, this is a view over a
    :class:`~repro.obs.metrics.MetricsRegistry`: attribute reads/writes go to
    ``solver.*`` counters, ``commit_seconds`` doubles as a log-bucketed
    histogram, and :meth:`snapshot` emits the unified
    ``{name, type, value, labels}`` schema.  Instances stay picklable (they
    travel inside checkpointed results) by reducing to their snapshot.
    """

    __slots__ = ("registry", "_metrics", "_commit_histogram", "_commit_list")

    def __init__(self, registry: Optional[MetricsRegistry] = None, **values: Any) -> None:
        commit_values = values.pop("commit_seconds", ())
        unknown = set(values) - set(FIELDS)
        if unknown:
            raise TypeError(f"unexpected SolverStats field(s): {sorted(unknown)}")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._metrics = {name: self.registry.counter(_PREFIX + name) for name in FIELDS}
        self._commit_histogram = self.registry.histogram(_PREFIX + "commit_seconds")
        self._commit_list = _CommitSeconds(self._commit_histogram, commit_values)
        for name, value in values.items():
            self._metrics[name].set(value)

    @property
    def commit_seconds(self) -> _CommitSeconds:
        return self._commit_list

    @commit_seconds.setter
    def commit_seconds(self, values: Iterable[float]) -> None:
        self._commit_list = _CommitSeconds(self._commit_histogram, values)

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another stats object into this one (used across snapshots)."""
        for name in FIELDS:
            self._metrics[name].inc(other._metrics[name].value)
        self.commit_seconds.extend(other.commit_seconds)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def values(self) -> Dict[str, Any]:
        """Raw field values as a flat dict (legacy snapshot shape)."""
        flat: Dict[str, Any] = {name: self._metrics[name].value for name in FIELDS}
        flat["commit_seconds"] = list(self._commit_list)
        return flat

    def snapshot(self) -> List[Dict[str, Any]]:
        """All metrics in the unified ``{name, type, value, labels}`` schema."""
        entries = [self._metrics[name].to_metric() for name in FIELDS]
        commit = self._commit_histogram.to_metric()
        commit["value"]["samples"] = list(self._commit_list)
        entries.append(commit)
        return entries

    @classmethod
    def from_snapshot(
        cls,
        state: Union[Dict[str, Any], Iterable[Dict[str, Any]]],
        registry: Optional[MetricsRegistry] = None,
    ) -> "SolverStats":
        """Rebuild stats from :meth:`snapshot` output (legacy dicts accepted)."""
        if isinstance(state, dict):
            known = {key: value for key, value in state.items() if key in FIELDS}
            stats = cls(registry=registry, **known)
            stats.commit_seconds = state.get("commit_seconds", ())
            return stats
        stats = cls(registry=registry)
        for entry in state:
            name = entry.get("name", "")
            fieldname = name[len(_PREFIX):] if name.startswith(_PREFIX) else name
            if fieldname in stats._metrics:
                stats._metrics[fieldname].restore(entry.get("value", 0))
            elif fieldname == "commit_seconds":
                value = dict(entry.get("value") or {})
                samples = value.pop("samples", [])
                stats._commit_histogram.restore(value)
                stats._commit_list._load(samples)
        return stats

    def __reduce__(self):
        # Pickle via the snapshot: avoids dragging registry internals (and
        # the list-subclass mirroring) through pickle, and keeps checkpointed
        # results loadable across registry implementation changes.
        return (_solver_stats_from_snapshot, (self.snapshot(),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolverStats):
            return NotImplemented
        return self.values() == other.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={value!r}" for name, value in self.values().items() if value)
        return f"SolverStats({fields})"


def _solver_stats_from_snapshot(state: List[Dict[str, Any]]) -> SolverStats:
    """Module-level unpickling hook for :meth:`SolverStats.__reduce__`."""
    return SolverStats.from_snapshot(state)


def _make_field_property(name: str) -> property:
    def fget(self: SolverStats):
        return self._metrics[name].value

    def fset(self: SolverStats, value) -> None:
        self._metrics[name].set(value)

    fget.__name__ = name
    return property(fget, fset, doc=f"Registry-backed view of ``solver.{name}``.")


for _name in FIELDS:
    setattr(SolverStats, _name, _make_field_property(_name))
del _name


@dataclass(frozen=True)
class AnchoredKCoreResult:
    """The outcome of one anchored k-core selection on a single graph.

    Attributes
    ----------
    algorithm:
        Name of the solver that produced the result.
    k:
        The degree constraint.
    budget:
        Maximum number of anchors allowed (the paper's ``l``).
    anchors:
        The selected anchor vertices, in selection order.
    followers:
        The followers of the selected anchor set (Definition 3).
    anchored_core_size:
        Size of the anchored k-core ``|C_k(S)|`` (k-core + anchors + followers).
    stats:
        Instrumentation collected during the selection.
    """

    algorithm: str
    k: int
    budget: int
    anchors: Tuple[Vertex, ...]
    followers: FrozenSet[Vertex]
    anchored_core_size: int
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def num_followers(self) -> int:
        """Number of followers gained by the anchor set."""
        return len(self.followers)

    def summary(self) -> str:
        """Return a one-line human-readable summary (used by examples and CLI)."""
        anchor_text = ", ".join(str(anchor) for anchor in self.anchors) or "-"
        return (
            f"{self.algorithm}: anchors=[{anchor_text}] followers={self.num_followers} "
            f"|C_k(S)|={self.anchored_core_size} "
            f"(candidates={self.stats.candidates_evaluated}, "
            f"visited={self.stats.visited_vertices})"
        )
