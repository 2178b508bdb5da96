"""Evolving graphs: snapshot sequences and edge deltas.

The paper models an evolving network as a sequence of snapshot graphs
``G = {G_t}_{t=1..T}`` that share a vertex set, with edge insertions ``E+``
and deletions ``E-`` between consecutive snapshots.  Two representations are
provided:

* :class:`SnapshotSequence` — a materialised list of :class:`~repro.graph.static.Graph`
  snapshots (convenient for loaders and small experiments); and
* :class:`EvolvingGraph` — a base graph plus a list of :class:`EdgeDelta`
  objects, which is the representation the incremental algorithm consumes.

Both can be converted into each other losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SnapshotError, require_hashable
from repro.graph.static import Edge, Graph, Vertex
from repro.ordering import edge_tie_break_key, tie_break_key


def _normalise_edge(edge: Edge) -> Tuple[Vertex, Vertex]:
    """Return the edge as a canonically ordered tuple so deltas compare cleanly.

    Both orientations of an edge give the same tuple.  Ids that ``<``
    orders one way round go smaller first; any other pair (equal ids, ids
    ``<`` cannot compare, or ids it orders partially, such as two
    frozensets neither of which contains the other) goes by the shared
    tie-break key.
    """
    u, v = edge
    try:
        if u < v:  # type: ignore[operator]
            return (u, v)
        if v < u:  # type: ignore[operator]
            return (v, u)
    except TypeError:
        pass
    return (u, v) if tie_break_key(u) <= tie_break_key(v) else (v, u)


@dataclass(frozen=True)
class EdgeDelta:
    """The change set between two consecutive snapshots.

    Attributes
    ----------
    inserted:
        Edges present in ``G_t`` but not in ``G_{t-1}`` (the paper's ``E+``).
    removed:
        Edges present in ``G_{t-1}`` but not in ``G_t`` (the paper's ``E-``).

    Every endpoint must be hashable: a delta with an unhashable one is
    refused with :class:`~repro.errors.ParameterError` when it is built,
    before any graph or maintainer sees it.
    """

    inserted: Tuple[Tuple[Vertex, Vertex], ...] = ()
    removed: Tuple[Tuple[Vertex, Vertex], ...] = ()

    def __post_init__(self) -> None:
        # One hash of the whole delta checks every endpoint in C, off the
        # per-edge path.  It fails on list containers too, so a failure only
        # starts the scan that names the bad endpoint, if there is one.
        try:
            hash(self)
        except TypeError:
            for name in ("inserted", "removed"):
                for edge in getattr(self, name):
                    for endpoint in edge:
                        require_hashable(f"EdgeDelta.{name}", endpoint)

    @classmethod
    def from_iterables(
        cls,
        inserted: Iterable[Edge] = (),
        removed: Iterable[Edge] = (),
    ) -> "EdgeDelta":
        """Build a delta from arbitrary edge iterables (edges are canonicalised)."""
        ins = tuple(sorted({_normalise_edge(e) for e in inserted}, key=edge_tie_break_key))
        rem = tuple(sorted({_normalise_edge(e) for e in removed}, key=edge_tie_break_key))
        return cls(inserted=ins, removed=rem)

    @classmethod
    def between(cls, before: Graph, after: Graph) -> "EdgeDelta":
        """Compute the delta that turns ``before`` into ``after``."""
        before_edges = before.edge_set()
        after_edges = after.edge_set()
        inserted = [tuple(edge) for edge in after_edges - before_edges]
        removed = [tuple(edge) for edge in before_edges - after_edges]
        return cls.from_iterables(inserted=inserted, removed=removed)

    @classmethod
    def merge(cls, *deltas: "EdgeDelta", base: Optional[Graph] = None) -> "EdgeDelta":
        """Coalesce consecutive deltas into one, cancelling opposing pairs.

        Within each delta insertions apply before removals (the order
        :meth:`apply` uses), and across deltas the *last* operation on an edge
        decides its final state.  That rule is sound regardless of the base
        graph: an edge whose last operation is an insertion ends up present
        (re-inserting a present edge is a no-op) and one whose last operation
        is a removal ends up absent (removing an absent edge is a no-op), so
        applying the merged delta is equivalent to applying the sequence.

        When ``base`` is given, operations that cannot change it are dropped
        entirely — an insert→delete pair on an edge absent from ``base`` (or a
        delete→insert pair on a present one) cancels to nothing instead of
        surviving as a harmless no-op entry.  This is what the streaming
        engine's ingest buffer relies on to keep its batches minimal.
        """
        net: Dict[Tuple[Vertex, Vertex], int] = {}
        for delta in deltas:
            for edge in delta.inserted:
                net[_normalise_edge(edge)] = 1
            for edge in delta.removed:
                net[_normalise_edge(edge)] = -1
        if base is not None:
            net = {
                edge: state
                for edge, state in net.items()
                if base.has_edge(*edge) != (state > 0)
            }
        return cls.from_iterables(
            inserted=(edge for edge, state in net.items() if state > 0),
            removed=(edge for edge, state in net.items() if state < 0),
        )

    @property
    def num_changes(self) -> int:
        """Total number of edge insertions plus deletions."""
        return len(self.inserted) + len(self.removed)

    def is_empty(self) -> bool:
        """Return whether the delta performs no change."""
        return not self.inserted and not self.removed

    def apply(self, graph: Graph) -> None:
        """Apply this delta to ``graph`` in place (insertions first, then removals).

        Insertions of already-present edges and removals of absent edges are
        ignored, mirroring how the paper builds snapshots from noisy temporal
        data.
        """
        for u, v in self.inserted:
            graph.add_edge(u, v)
        for u, v in self.removed:
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)

    def reversed(self) -> "EdgeDelta":
        """Return the delta that undoes this one."""
        return EdgeDelta(inserted=self.removed, removed=self.inserted)


class SnapshotSequence:
    """A materialised sequence of graph snapshots sharing one vertex universe."""

    def __init__(self, snapshots: Sequence[Graph]) -> None:
        if not snapshots:
            raise SnapshotError("a snapshot sequence needs at least one snapshot")
        self._snapshots: List[Graph] = list(snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __iter__(self) -> Iterator[Graph]:
        return iter(self._snapshots)

    def __getitem__(self, index: int) -> Graph:
        try:
            return self._snapshots[index]
        except IndexError:
            raise SnapshotError(
                f"snapshot index {index} out of range for {len(self._snapshots)} snapshots"
            ) from None

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots ``T``."""
        return len(self._snapshots)

    def vertex_universe(self) -> Set[Vertex]:
        """Union of the vertex sets of every snapshot."""
        universe: Set[Vertex] = set()
        for snapshot in self._snapshots:
            universe.update(snapshot.vertices())
        return universe

    def deltas(self) -> List[EdgeDelta]:
        """Return the ``T - 1`` deltas between consecutive snapshots."""
        return [
            EdgeDelta.between(self._snapshots[t - 1], self._snapshots[t])
            for t in range(1, len(self._snapshots))
        ]

    def to_evolving_graph(self) -> "EvolvingGraph":
        """Convert to the delta-based representation."""
        return EvolvingGraph(base=self._snapshots[0].copy(), deltas=self.deltas())

    def truncated(self, num_snapshots: int) -> "SnapshotSequence":
        """Return a new sequence keeping only the first ``num_snapshots`` snapshots."""
        if num_snapshots < 1 or num_snapshots > len(self._snapshots):
            raise SnapshotError(
                f"cannot truncate {len(self._snapshots)} snapshots to {num_snapshots}"
            )
        return SnapshotSequence(self._snapshots[:num_snapshots])

    def total_edge_changes(self) -> int:
        """Total number of edge insertions and deletions across the sequence."""
        return sum(delta.num_changes for delta in self.deltas())


@dataclass
class EvolvingGraph:
    """Delta-based evolving graph: a base snapshot plus per-step edge deltas.

    ``snapshots()`` replays the deltas to materialise every snapshot; the
    incremental tracker instead consumes the deltas directly so that it never
    rebuilds a graph from scratch.
    """

    base: Graph
    deltas: List[EdgeDelta] = field(default_factory=list)

    @property
    def num_snapshots(self) -> int:
        """Number of snapshots ``T`` (the base counts as snapshot 1)."""
        return len(self.deltas) + 1

    def snapshots(self) -> Iterator[Graph]:
        """Yield every snapshot as an independent :class:`Graph` copy."""
        current = self.base.copy()
        yield current.copy()
        for delta in self.deltas:
            delta.apply(current)
            yield current.copy()

    def snapshot_at(self, index: int) -> Graph:
        """Materialise the snapshot with 0-based ``index``."""
        if index < 0 or index >= self.num_snapshots:
            raise SnapshotError(
                f"snapshot index {index} out of range for {self.num_snapshots} snapshots"
            )
        current = self.base.copy()
        for delta in self.deltas[:index]:
            delta.apply(current)
        return current

    def to_snapshot_sequence(self) -> SnapshotSequence:
        """Materialise every snapshot into a :class:`SnapshotSequence`."""
        return SnapshotSequence(list(self.snapshots()))

    def truncated(self, num_snapshots: int) -> "EvolvingGraph":
        """Return an evolving graph keeping only the first ``num_snapshots`` snapshots."""
        if num_snapshots < 1 or num_snapshots > self.num_snapshots:
            raise SnapshotError(
                f"cannot truncate {self.num_snapshots} snapshots to {num_snapshots}"
            )
        return EvolvingGraph(base=self.base.copy(), deltas=list(self.deltas[: num_snapshots - 1]))

    def total_edge_changes(self) -> int:
        """Total number of edge insertions and deletions across all deltas."""
        return sum(delta.num_changes for delta in self.deltas)
