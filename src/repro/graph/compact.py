"""Compact integer-ID graph structures: interning plus flat-array adjacency.

The public API of the library works with arbitrary hashable vertex
identifiers held in an adjacency-set ``dict`` (:class:`~repro.graph.static.Graph`).
That representation is ideal for mutation and for small graphs, but every hot
kernel pays hashing and pointer-chasing costs on every vertex touch.  This
module provides dense integer-id structures, among them the one incremental
core maintenance mirrors the graph into:

* :class:`VertexInterner` maps hashable vertex ids to dense ``0..n-1``
  integers (and back).  Interning is append-only: an id, once assigned, is
  stable for the interner's lifetime.
* :class:`CompactGraph` is a frozen CSR-style snapshot — ``indptr`` /
  ``indices`` flat lists of ints — built from a :class:`Graph` in one
  gather: ids are assigned by position and the neighbour rows are flattened
  and translated in one ``map``.  With ``ordered=True`` (the default)
  vertices are interned in :func:`repro.ordering.tie_break_key` order, so
  the integer id of a vertex is its tie-break rank.  No library kernel
  relies on that: the numpy backend builds its own snapshot
  (:class:`~repro.backends.numpy_backend.NumpyGraph`) in its source's id
  order and keys only the vertices it puts in order.
* :class:`DynamicCompactAdjacency` is the mutable sibling (list of int sets)
  that :class:`repro.cores.maintenance.CoreMaintainer` mirrors the graph
  into on every backend, so the insertion/deletion traversals run over ints
  while the graph evolves.

Backend names and their selection live in :mod:`repro.backends`.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import VertexNotFoundError
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


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


class CompactGraph:
    """Frozen CSR snapshot of a :class:`~repro.graph.static.Graph`.

    ``indices[indptr[i]:indptr[i + 1]]`` holds the neighbour ids of vertex
    ``i``; ``degrees[i]`` is that row's length, computed on read.  The order
    inside a row is unspecified.  The structure is a snapshot: mutating the
    source graph afterwards does not update it.

    With ``ordered=True`` vertices are interned in deterministic
    :func:`~repro.ordering.tie_break_key` order, so the integer id is the
    vertex's tie-break rank.  ``ordered=False`` skips the sort (one ``repr``
    call per vertex) and interns in the graph's iteration order.
    """

    __slots__ = ("interner", "indptr", "indices", "ordered", "num_edges")

    def __init__(
        self,
        interner: VertexInterner,
        indptr: List[int],
        indices: List[int],
        ordered: bool,
        num_edges: int,
    ) -> None:
        self.interner = interner
        self.indptr = indptr
        self.indices = indices
        self.ordered = ordered
        self.num_edges = num_edges

    @classmethod
    def from_graph(cls, graph: Graph, ordered: bool = True) -> "CompactGraph":
        """Build a CSR snapshot of ``graph`` in one gather.

        Ids are assigned by position in the vertex order, and every row is
        translated in one ``map`` over the chained neighbour sets, so there
        is one dict lookup per neighbour entry and no call per vertex.
        """
        if ordered:
            vertex_order = sorted(graph.vertices(), key=tie_break_key)
        else:
            vertex_order = list(graph.vertices())
        interner = VertexInterner.of_distinct(vertex_order)
        rows = list(map(graph.neighbors, vertex_order))
        indices = list(map(interner.ids.__getitem__, chain.from_iterable(rows)))
        indptr = list(accumulate(map(len, rows), initial=0))
        return cls(
            interner,
            indptr,
            indices,
            ordered=ordered,
            num_edges=graph.num_edges,
        )

    @property
    def degrees(self) -> List[int]:
        """Row lengths by id (a fresh list)."""
        indptr = self.indptr
        return [indptr[i + 1] - indptr[i] for i in range(len(self.interner))]

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the snapshot."""
        return len(self.interner)

    def neighbor_ids(self, vid: int) -> List[int]:
        """Return the neighbour ids of ``vid`` (a fresh list)."""
        return self.indices[self.indptr[vid] : self.indptr[vid + 1]]

    def __len__(self) -> int:
        return len(self.interner)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"ordered={self.ordered})"
        )


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
