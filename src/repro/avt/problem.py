"""Problem definition and result containers for Anchored Vertex Tracking.

The AVT problem (Section 2.2): given an evolving graph ``G = {G_t}``, a degree
constraint ``k`` and a budget ``l``, find for every snapshot an anchor set
``S_t`` with ``|S_t| <= l`` maximising the anchored k-core ``|C_k(S_t)|``.
A *tracker* (see :mod:`repro.avt.trackers` and :mod:`repro.avt.incremental`)
consumes an :class:`AVTProblem` and produces an :class:`AVTResult` holding one
:class:`SnapshotResult` per timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.errors import require_int
from repro.graph.dynamic import EvolvingGraph, SnapshotSequence
from repro.graph.static import Vertex


@dataclass(frozen=True)
class AVTProblem:
    """One instance of the Anchored Vertex Tracking problem.

    Attributes
    ----------
    evolving_graph:
        The evolving network, as a base snapshot plus per-step edge deltas.
    k:
        Degree constraint of the engagement (k-core) model.
    budget:
        Maximum anchor-set size ``l`` per snapshot.
    name:
        Optional label used in reports (typically the dataset name).
    """

    evolving_graph: EvolvingGraph
    k: int
    budget: int
    name: str = "avt"

    def __post_init__(self) -> None:
        require_int("k", self.k, 1)
        require_int("budget", self.budget, 0)

    @classmethod
    def from_snapshots(
        cls,
        snapshots: Union[SnapshotSequence, Sequence],
        k: int,
        budget: int,
        name: str = "avt",
    ) -> "AVTProblem":
        """Build a problem from a materialised snapshot sequence."""
        if not isinstance(snapshots, SnapshotSequence):
            snapshots = SnapshotSequence(list(snapshots))
        return cls(evolving_graph=snapshots.to_evolving_graph(), k=k, budget=budget, name=name)

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots ``T``."""
        return self.evolving_graph.num_snapshots

    def truncated(self, num_snapshots: int) -> "AVTProblem":
        """Return the same problem restricted to the first ``num_snapshots`` snapshots."""
        return AVTProblem(
            evolving_graph=self.evolving_graph.truncated(num_snapshots),
            k=self.k,
            budget=self.budget,
            name=self.name,
        )


@dataclass(frozen=True)
class SnapshotResult:
    """The anchor set selected at one snapshot, plus context about the snapshot."""

    timestamp: int
    result: AnchoredKCoreResult
    num_vertices: int
    num_edges: int
    edges_inserted: int = 0
    edges_removed: int = 0

    @property
    def anchors(self) -> Tuple[Vertex, ...]:
        """The anchors selected at this snapshot."""
        return self.result.anchors

    @property
    def num_followers(self) -> int:
        """Followers gained at this snapshot."""
        return self.result.num_followers


@dataclass
class AVTResult:
    """The full output of a tracker: one :class:`SnapshotResult` per timestamp."""

    algorithm: str
    k: int
    budget: int
    problem_name: str
    snapshots: List[SnapshotResult] = field(default_factory=list)

    def append(self, snapshot_result: SnapshotResult) -> None:
        """Add the result of the next snapshot."""
        self.snapshots.append(snapshot_result)

    def __iter__(self) -> Iterator[SnapshotResult]:
        return iter(self.snapshots)

    def __len__(self) -> int:
        return len(self.snapshots)

    # ------------------------------------------------------------------
    # Aggregates used by the experiment harness
    # ------------------------------------------------------------------
    @property
    def anchor_sets(self) -> List[Tuple[Vertex, ...]]:
        """The series of anchor sets ``S = {S_t}``."""
        return [snapshot.anchors for snapshot in self.snapshots]

    @property
    def followers_per_snapshot(self) -> List[int]:
        """Follower count at each snapshot (Figures 9-12)."""
        return [snapshot.num_followers for snapshot in self.snapshots]

    @property
    def total_followers(self) -> int:
        """Total followers across all snapshots."""
        return sum(self.followers_per_snapshot)

    @property
    def total_runtime_seconds(self) -> float:
        """Total solver time across all snapshots (Figures 3, 5, 7)."""
        return sum(snapshot.result.stats.runtime_seconds for snapshot in self.snapshots)

    @property
    def total_visited_vertices(self) -> int:
        """Total visited candidate vertices across snapshots (Figures 4, 6, 8)."""
        return sum(snapshot.result.stats.visited_vertices for snapshot in self.snapshots)

    @property
    def total_candidates_evaluated(self) -> int:
        """Total candidate anchors whose followers were computed."""
        return sum(snapshot.result.stats.candidates_evaluated for snapshot in self.snapshots)

    def aggregate_stats(self) -> SolverStats:
        """Return all per-snapshot stats merged into a single object."""
        merged = SolverStats()
        for snapshot in self.snapshots:
            merged.merge(snapshot.result.stats)
        return merged

    def summary(self) -> str:
        """Return a one-line summary for reports and examples."""
        return (
            f"{self.algorithm} on {self.problem_name} (k={self.k}, l={self.budget}, "
            f"T={len(self.snapshots)}): followers={self.total_followers}, "
            f"visited={self.total_visited_vertices}, "
            f"time={self.total_runtime_seconds:.3f}s"
        )
