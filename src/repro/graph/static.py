"""Undirected simple graph backed by adjacency sets.

The paper's algorithms operate on undirected, unweighted, simple graphs whose
vertex identifiers are arbitrary hashable objects (the experiments use
integers).  ``networkx`` is deliberately not used inside the library: the core
maintenance and anchored-core algorithms need tight control over adjacency
mutation and the ability to copy cheaply, and an adjacency-set ``dict`` is the
fastest pure-Python representation for both.  ``networkx`` is only used in the
test-suite as an independent oracle.

:class:`IdGraph` is the same graph interned into dense integer ids, one set
of neighbour ids per id: the form a maintained graph takes
(:class:`repro.cores.maintenance.CoreMaintainer`), so its core maintenance
and id-space passes read the very sets that store its edges.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import EdgeNotFoundError, GraphError, SelfLoopError, VertexNotFoundError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """An undirected simple graph.

    Vertices may exist with zero degree (the paper models users that joined
    the platform but currently have no active ties).  Parallel edges and
    self-loops are rejected.

    Only the constructor, :meth:`copy`, the mutators and the primitive
    queries read the adjacency ``dict``; every derived method
    (:meth:`edges`, :meth:`subgraph`, ``==``, ...) goes through them, so
    :class:`IdGraph` need override only those.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs inserted at construction time.
    vertices:
        Optional iterable of vertices inserted (possibly isolated) at
        construction time.
    """

    __slots__ = ("_adj", "_num_edges")

    def __init__(
        self,
        edges: Iterable[Edge] | None = None,
        vertices: Iterable[Vertex] | None = None,
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0
        if vertices is not None:
            for vertex in vertices:
                self.add_vertex(vertex)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an iterable of edges, ignoring duplicates."""
        return cls(edges=edges)

    def copy(self) -> "Graph":
        """Return an independent deep copy of the adjacency structure."""
        clone = Graph()
        clone._adj = {vertex: set(neighbours) for vertex, neighbours in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Insert ``vertex`` if it is not already present."""
        if vertex not in self._adj:
            self._adj[vertex] = set()

    def add_vertices(self, vertices: Iterable[Vertex]) -> None:
        """Insert every vertex of ``vertices`` (duplicates are ignored)."""
        for vertex in vertices:
            self.add_vertex(vertex)

    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert the undirected edge ``(u, v)``.

        Missing endpoints are created.  Returns ``True`` if the edge was new
        and ``False`` if it already existed (the graph is left unchanged).
        Raises :class:`SelfLoopError` when ``u == v``.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> int:
        """Insert every edge of ``edges``; return the number actually added."""
        added = 0
        for u, v in edges:
            if self.add_edge(u, v):
                added += 1
        return added

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge ``(u, v)``.

        Raises :class:`EdgeNotFoundError` when the edge is absent; the
        endpoints themselves are kept (possibly now isolated).
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1

    def remove_edges(self, edges: Iterable[Edge]) -> int:
        """Remove every edge of ``edges`` that exists; return how many were removed."""
        removed = 0
        for u, v in edges:
            if self.has_edge(u, v):
                self.remove_edge(u, v)
                removed += 1
        return removed

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and every incident edge.

        Raises :class:`VertexNotFoundError` when the vertex is absent.
        """
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        for neighbour in self._adj[vertex]:
            self._adj[neighbour].discard(vertex)
        self._num_edges -= len(self._adj[vertex])
        del self._adj[vertex]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_vertex(self, vertex: Vertex) -> bool:
        """Return whether ``vertex`` is in the graph."""
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return whether the undirected edge ``(u, v)`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, vertex: Vertex) -> AbstractSet[Vertex]:
        """Return the neighbour set of ``vertex`` (a live view — do not mutate).

        Live: later edge updates show through it.  A plain graph hands out
        its own set; an :class:`IdGraph` hands out a read-only
        :class:`IdSetView` over the vertex's id row, which translates ids
        as it iterates and copies nothing.
        """
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def neighbor_sets(self) -> Collection[AbstractSet[Vertex]]:
        """Return every vertex's neighbour set in :meth:`vertices` order
        (live views, as :meth:`neighbors` returns them — do not mutate)."""
        return self._adj.values()

    def degree(self, vertex: Vertex) -> int:
        """Return the number of neighbours of ``vertex``."""
        return len(self.neighbors(vertex))

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges, each reported once as ``(u, v)``."""
        seen: Set[Vertex] = set()
        for u in self.vertices():
            for v in self.neighbors(u):
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def edge_set(self) -> Set[FrozenSet[Vertex]]:
        """Return the edges as a set of two-element frozensets."""
        return {frozenset((u, v)) for u, v in self.edges()}

    @property
    def num_vertices(self) -> int:
        """Number of vertices, including isolated ones."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    def average_degree(self) -> float:
        """Return ``2m / n`` (0.0 for the empty graph)."""
        if not self.num_vertices:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    def degree_map(self) -> Dict[Vertex, int]:
        """Return a fresh ``{vertex: degree}`` dictionary."""
        return dict(zip(self.vertices(), map(len, self.neighbor_sets())))

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced on the vertices in ``keep``."""
        keep_set = set(keep)
        sub = Graph(vertices=(v for v in keep_set if self.has_vertex(v)))
        for u in keep_set:
            if not self.has_vertex(u):
                continue
            for v in self.neighbors(u):
                if v in keep_set:
                    sub.add_edge(u, v)
        return sub

    def connected_components(self) -> List[Set[Vertex]]:
        """Return the connected components as a list of vertex sets."""
        components: List[Set[Vertex]] = []
        unseen = set(self.vertices())
        while unseen:
            root = next(iter(unseen))
            component = {root}
            frontier = [root]
            unseen.discard(root)
            while frontier:
                current = frontier.pop()
                for neighbour in self.neighbors(current):
                    if neighbour in unseen:
                        unseen.discard(neighbour)
                        component.add(neighbour)
                        frontier.append(neighbour)
            components.append(component)
        return components

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return self.has_vertex(vertex)

    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[Vertex]:
        return self.vertices()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.num_vertices == other.num_vertices and all(
            other.has_vertex(vertex) and other.neighbors(vertex) == self.neighbors(vertex)
            for vertex in self.vertices()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(n={self.num_vertices}, m={self.num_edges})"


class IdSetView(AbstractSet):
    """A read-only live set of vertices over the id set ``rows[index]``.

    ``rows[index]`` is read at every access (empty past the end of ``rows``),
    ``ids`` maps a vertex to its id and ``vertices`` an id back.  ``in`` and
    ``len`` are O(1), iteration translates ids, and set operators return
    plain sets.
    """

    __slots__ = ("_ids", "_vertices", "_rows", "_index")

    def __init__(self, ids: Dict, vertices: Sequence, rows: Sequence, index: int) -> None:
        self._ids = ids
        self._vertices = vertices
        self._rows = rows
        self._index = index

    def __contains__(self, vertex: object) -> bool:
        vid = self._ids.get(vertex)
        rows, index = self._rows, self._index
        return vid is not None and index < len(rows) and vid in rows[index]

    def __len__(self) -> int:
        rows, index = self._rows, self._index
        return len(rows[index]) if index < len(rows) else 0

    def __iter__(self) -> Iterator[Vertex]:
        rows, index = self._rows, self._index
        return map(self._vertices.__getitem__, rows[index] if index < len(rows) else ())

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Vertex]) -> Set[Vertex]:
        return set(iterable)


class IdGraph(Graph):
    """A graph interned into dense integer ids: one set of neighbour ids per id.

    ``ids`` maps a vertex to its id, ``id_vertices[vid]`` is the vertex of id
    ``vid`` and ``rows[vid]`` the set of its neighbours' ids.  Ids are handed
    out in insertion order from 0 and never change (:meth:`remove_vertex`
    raises), so a list indexed by id stays valid for the graph's lifetime.
    :class:`repro.cores.maintenance.CoreMaintainer` keeps its graph in this
    form; its traversals, IncAVT's swap/fill pass and the numpy snapshot of
    an exact solve read ``rows`` directly.

    Every :class:`Graph` method answers in vertex space without copying a
    row: :meth:`neighbors` is an :class:`IdSetView` of the id row,
    :meth:`degree`, :meth:`has_edge` and :meth:`has_vertex` are lookups, and
    :meth:`copy` returns a plain :class:`Graph`.  The mutators write the id
    rows; nothing else may write ``ids``, ``id_vertices`` or ``rows``.
    """

    # ``_adj`` stays unset: every method that reads it is overridden here.
    __slots__ = ("ids", "id_vertices", "rows")

    def __init__(self, graph: Graph) -> None:
        """Intern ``graph`` by position: id ``i`` is its ``i``-th vertex.

        One pass: the vertices are distinct, so no id needs a lookup, and
        each row is built from the vertex's neighbour set in one call.
        """
        self.id_vertices: List[Vertex] = list(graph.vertices())
        self.ids: Dict[Vertex, int] = dict(zip(self.id_vertices, range(len(self.id_vertices))))
        lookup = self.ids.__getitem__
        self.rows: List[Set[int]] = [set(map(lookup, row)) for row in graph.neighbor_sets()]
        self._num_edges = graph.num_edges

    def copy(self) -> Graph:
        """Return an independent plain :class:`Graph`, vertices in the same order."""
        return Graph(edges=self.edges(), vertices=self.vertices())

    def add_vertex(self, vertex: Vertex) -> int:
        """Add ``vertex`` (isolated, at the next id) if it is new; return its id."""
        vid = self.ids.get(vertex)
        if vid is None:
            vid = self.ids[vertex] = len(self.rows)
            self.id_vertices.append(vertex)
            self.rows.append(set())
        return vid

    def add_edge_ids(self, u_id: int, v_id: int) -> bool:
        """Insert the edge between two existing ids; ``False`` if it was present."""
        if v_id in self.rows[u_id]:
            return False
        self.rows[u_id].add(v_id)
        self.rows[v_id].add(u_id)
        self._num_edges += 1
        return True

    def remove_edge_ids(self, u_id: int, v_id: int) -> bool:
        """Remove the edge between two existing ids; ``False`` if it was absent."""
        if v_id not in self.rows[u_id]:
            return False
        self.rows[u_id].remove(v_id)
        self.rows[v_id].remove(u_id)
        self._num_edges -= 1
        return True

    def add_edge(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            raise SelfLoopError(u)
        return self.add_edge_ids(self.add_vertex(u), self.add_vertex(v))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        u_id, v_id = self.ids.get(u), self.ids.get(v)
        if u_id is None or v_id is None or not self.remove_edge_ids(u_id, v_id):
            raise EdgeNotFoundError(u, v)

    def remove_vertex(self, vertex: Vertex) -> None:
        """Refused, since ids are permanent: raises :class:`~repro.errors.GraphError`."""
        raise GraphError(f"cannot remove vertex {vertex!r} from a graph whose ids are permanent")

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self.ids

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        ids = self.ids
        try:
            # No row holds -1, the id of an unknown ``v``.
            return ids.get(v, -1) in self.rows[ids[u]]
        except KeyError:
            return False

    def neighbors(self, vertex: Vertex) -> IdSetView:
        try:
            vid = self.ids[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        return IdSetView(self.ids, self.id_vertices, self.rows, vid)

    def neighbor_sets(self) -> List[IdSetView]:
        ids, vertices, rows = self.ids, self.id_vertices, self.rows
        return [IdSetView(ids, vertices, rows, vid) for vid in range(len(rows))]

    def degree(self, vertex: Vertex) -> int:
        try:
            return len(self.rows[self.ids[vertex]])
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def vertices(self) -> Iterator[Vertex]:
        return iter(self.id_vertices)

    def edges(self) -> Iterator[Edge]:
        # In id space, with no views: a checkpoint writes every edge.
        vertices = self.id_vertices
        for vid, row in enumerate(self.rows):
            for wid in row:
                if wid > vid:
                    yield (vertices[vid], vertices[wid])

    @property
    def num_vertices(self) -> int:
        return len(self.rows)
