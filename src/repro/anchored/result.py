"""Result and statistics containers shared by the anchored k-core solvers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Tuple

from repro.graph.static import Vertex


@dataclass
class SolverStats:
    """Instrumentation collected while selecting an anchor set.

    Plain data: every counter is an attribute, so a solver updates it in
    place, and instances compare, copy and pickle as dataclasses (cached
    results carry one into engine checkpoints).

    Attributes
    ----------
    candidates_evaluated:
        Number of candidate anchors whose follower sets were computed.
    visited_vertices:
        Total vertices touched by follower computations and candidate scans —
        the quantity plotted in the paper's Figures 4, 6 and 8.  This is the
        *algorithmic* cost model: a memoized evaluation replays the counts
        its cascade reported when it actually ran, so the figure is
        bit-identical to re-running every evaluation every round.
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
        only re-runs candidates its invalidation marked stale; the solvers
        without a gain cache leave it at 0).
    cache_hits:
        Candidate evaluations answered from the memoized gain cache.
    commit_seconds:
        Wall-clock latency of each anchor commit (the index refresh /
        capped commit), in selection order.
    """

    candidates_evaluated: int = 0
    visited_vertices: int = 0
    runtime_seconds: float = 0.0
    iterations: int = 0
    maintenance_visited: int = 0
    candidates_recomputed: int = 0
    cache_hits: int = 0
    commit_seconds: List[float] = field(default_factory=list)

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another stats object into this one (used across snapshots)."""
        self.candidates_evaluated += other.candidates_evaluated
        self.visited_vertices += other.visited_vertices
        self.runtime_seconds += other.runtime_seconds
        self.iterations += other.iterations
        self.maintenance_visited += other.maintenance_visited
        self.candidates_recomputed += other.candidates_recomputed
        self.cache_hits += other.cache_hits
        self.commit_seconds.extend(other.commit_seconds)


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
