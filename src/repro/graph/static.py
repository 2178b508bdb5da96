"""Undirected simple graph backed by adjacency sets.

The paper's algorithms operate on undirected, unweighted, simple graphs whose
vertex identifiers are arbitrary hashable objects (the experiments use
integers).  ``networkx`` is deliberately not used inside the library: the core
maintenance and anchored-core algorithms need tight control over adjacency
mutation and the ability to copy cheaply, and an adjacency-set ``dict`` is the
fastest pure-Python representation for both.  ``networkx`` is only used in the
test-suite as an independent oracle.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Set,
    Tuple,
    ValuesView,
)

from repro.errors import EdgeNotFoundError, SelfLoopError, VertexNotFoundError

Vertex = Hashable
Edge = Tuple[Vertex, Vertex]


class Graph:
    """An undirected simple graph.

    Vertices may exist with zero degree (the paper models users that joined
    the platform but currently have no active ties).  Parallel edges and
    self-loops are rejected.

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

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the neighbour set of ``vertex`` (a live view — do not mutate)."""
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def neighbor_sets(self) -> ValuesView[Set[Vertex]]:
        """Return every vertex's neighbour set in :meth:`vertices` order
        (live views — do not mutate)."""
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
        for u, neighbours in self._adj.items():
            for v in neighbours:
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
        if not self._adj:
            return 0.0
        return 2.0 * self._num_edges / len(self._adj)

    def degree_map(self) -> Dict[Vertex, int]:
        """Return a fresh ``{vertex: degree}`` dictionary."""
        return {vertex: len(neighbours) for vertex, neighbours in self._adj.items()}

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, keep: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced on the vertices in ``keep``."""
        keep_set = set(keep)
        sub = Graph(vertices=(v for v in keep_set if v in self._adj))
        for u in keep_set:
            if u not in self._adj:
                continue
            for v in self._adj[u]:
                if v in keep_set:
                    sub.add_edge(u, v)
        return sub

    def connected_components(self) -> List[Set[Vertex]]:
        """Return the connected components as a list of vertex sets."""
        components: List[Set[Vertex]] = []
        unseen = set(self._adj)
        while unseen:
            root = next(iter(unseen))
            component = {root}
            frontier = [root]
            unseen.discard(root)
            while frontier:
                current = frontier.pop()
                for neighbour in self._adj[current]:
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
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.num_vertices}, m={self.num_edges})"
