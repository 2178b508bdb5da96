"""Integer-id graph structures: interning plus an id adjacency mirror.

The public API of the library works with arbitrary hashable vertex
identifiers held in an adjacency-set ``dict`` (:class:`~repro.graph.static.Graph`).
That representation is ideal for mutation and for small graphs, but every hot
kernel pays hashing and pointer-chasing costs on every vertex touch.  This
module provides the dense integer-id structures incremental core
maintenance mirrors the graph into:

* :class:`VertexInterner` maps hashable vertex ids to dense ``0..n-1``
  integers (and back).  Interning is append-only: an id, once assigned, is
  stable for the interner's lifetime.
* :class:`DynamicCompactAdjacency` is the mutable id adjacency (list of int
  sets) that :class:`repro.cores.maintenance.CoreMaintainer` mirrors the
  graph into on every backend, so the insertion/deletion traversals run
  over ints while the graph evolves.  An exact solve over a maintained
  graph reads the same sets: the numpy backend's snapshot of it
  (:meth:`~repro.backends.numpy_backend.NumpyGraph.from_maintainer`)
  flattens the rows it gathers from them.  A bare graph's numpy snapshot
  interns the graph itself (:meth:`~repro.backends.numpy_backend.NumpyGraph.from_graph`).

Backend names and their selection live in :mod:`repro.backends`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import VertexNotFoundError
from repro.graph.static import Graph, Vertex


class VertexInterner:
    """Bidirectional mapping between hashable vertex ids and dense integers.

    Ids are assigned in first-seen order, starting at 0, and never change or
    disappear — consumers may therefore index flat arrays by id for the
    interner's whole lifetime.
    """

    __slots__ = ("_ids", "_vertices")

    def __init__(self, vertices: Optional[Iterable[Vertex]] = None) -> None:
        self._ids: Dict[Vertex, int] = {}
        self._vertices: List[Vertex] = []
        if vertices is not None:
            for vertex in vertices:
                self.intern(vertex)

    @classmethod
    def of_distinct(cls, vertices: Iterable[Vertex]) -> "VertexInterner":
        """Intern distinct ``vertices`` by position: id ``i`` is the ``i``-th.

        No lookup per vertex, unlike the constructor, so the caller must
        not repeat a vertex.
        """
        interner = cls()
        interner._vertices.extend(vertices)
        interner._ids.update(zip(interner._vertices, range(len(interner._vertices))))
        return interner

    def intern(self, vertex: Vertex) -> int:
        """Return the id of ``vertex``, assigning the next dense id if new."""
        vid = self._ids.get(vertex)
        if vid is None:
            vid = len(self._vertices)
            self._ids[vertex] = vid
            self._vertices.append(vertex)
        return vid

    def id_of(self, vertex: Vertex) -> int:
        """Return the id of an already-interned vertex.

        Raises :class:`~repro.errors.VertexNotFoundError` for unknown vertices.
        """
        try:
            return self._ids[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def get_id(self, vertex: Vertex, default: int = -1) -> int:
        """Return the id of ``vertex`` or ``default`` when not interned."""
        return self._ids.get(vertex, default)

    def vertex_of(self, vid: int) -> Vertex:
        """Return the vertex carrying integer id ``vid``."""
        return self._vertices[vid]

    @property
    def vertices(self) -> List[Vertex]:
        """The interned vertices, indexed by id (live list — do not mutate)."""
        return self._vertices

    @property
    def ids(self) -> Dict[Vertex, int]:
        """The ``{vertex: id}`` mapping (live dict — do not mutate)."""
        return self._ids

    def translate(self, vids: Iterable[int]) -> set:
        """Return ``vids`` as a set of the original hashable vertices."""
        vertices = self._vertices
        return {vertices[vid] for vid in vids}

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._ids

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VertexInterner(n={len(self._vertices)})"


class DynamicCompactAdjacency:
    """Mutable integer-ID adjacency: one set of neighbour ids per vertex.

    The incremental maintenance kernel traverses this structure instead of
    the hashable-vertex graph: neighbour iteration yields small ints, and the
    core numbers live in a flat list indexed by id.  Vertices are append-only
    (edge removal keeps endpoints), matching :class:`CoreMaintainer`'s
    contract.
    """

    __slots__ = ("interner", "adj")

    def __init__(
        self,
        interner: Optional[VertexInterner] = None,
        adj: Optional[List[set]] = None,
    ) -> None:
        self.interner = interner if interner is not None else VertexInterner()
        self.adj: List[set] = (
            adj if adj is not None else [set() for _ in range(len(self.interner))]
        )

    @classmethod
    def from_graph(cls, graph: Graph) -> "DynamicCompactAdjacency":
        """Mirror the adjacency of ``graph`` (ids in graph iteration order).

        One interning pass: graph vertices are distinct, so ids are assigned
        by position without a lookup per vertex, and each row is built from
        the neighbour set in one call.
        """
        interner = VertexInterner.of_distinct(graph.vertices())
        lookup = interner.ids.__getitem__
        neighbors = graph.neighbors
        return cls(
            interner, [set(map(lookup, neighbors(vertex))) for vertex in interner.vertices]
        )

    def ensure_vertex(self, vertex: Vertex) -> int:
        """Intern ``vertex`` (creating an empty adjacency row) and return its id."""
        vid = self.interner.intern(vertex)
        while len(self.adj) <= vid:
            self.adj.append(set())
        return vid

    def add_edge_ids(self, u_id: int, v_id: int) -> None:
        """Record the undirected edge between two existing ids."""
        self.adj[u_id].add(v_id)
        self.adj[v_id].add(u_id)

    def remove_edge_ids(self, u_id: int, v_id: int) -> None:
        """Drop the undirected edge between two existing ids (if present)."""
        self.adj[u_id].discard(v_id)
        self.adj[v_id].discard(u_id)

    def __len__(self) -> int:
        return len(self.adj)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DynamicCompactAdjacency(n={len(self.adj)})"
