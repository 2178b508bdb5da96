"""Incremental core maintenance for evolving graphs (Section 5.2).

When the graph evolves from ``G_{t-1}`` to ``G_t`` by inserting the edge set
``E+`` and deleting ``E-``, core numbers change only locally: an insertion can
raise the core number of vertices in the *subcore* of the edge's lower
endpoint by at most one (Lemmas 1–2), and a deletion can lower the core number
of vertices whose max core degree drops below their core number (Lemmas 3–4).

:class:`CoreMaintainer` owns a graph and its core numbers and updates them
edge by edge using the classic traversal maintenance algorithms.  Batch
updates via :meth:`apply_delta` additionally report the paper's ``VI`` and
``VR`` sets — the insertion-affected and deletion-affected vertices whose core
number is ``k - 1`` afterwards — which is exactly the candidate pool the
incremental tracker (IncAVT, Algorithm 6) probes.

The public hashable-vertex graph stays the source of truth for the
*structure*.  The traversals run in one integer-id kernel, whatever execution
backend the solvers use: it mirrors the adjacency into
:class:`~repro.graph.compact.DynamicCompactAdjacency` (one set of neighbour
ids per vertex, O(1) upkeep per edge operation), keeps the core numbers in a
flat list indexed by id for the traversals, and keeps a live
``{vertex: core}`` map beside it that every view reads, so no read translates
ids.  The kernel is pure Python: vectorisation cannot beat int-set traversals
on per-edge subcores, and maintenance runs the same with or without numpy.

Set-up interns the graph once, into the mirror, and takes the core numbers
from the bucket cascade of Batagelj and Zaversnik ("An O(m) Algorithm for
Cores Decomposition of Networks", 2003) over the mirror's ids.  It builds no
removal order and interns nothing a second time.  Trusted core numbers (a
checkpoint restore) skip the cascade.

The maintained core numbers are the single source of truth for the incremental
tracker; a :meth:`CoreMaintainer.validate` hook recomputes them from scratch
with a full peel and raises if either the map or the id list ever diverges,
and the property-based tests exercise that hook on random edit sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.cores.decomposition import core_numbers as recompute_core_numbers
from repro.errors import InvariantViolationError, require_int
from repro.graph.compact import DynamicCompactAdjacency
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Edge, Graph, Vertex


@dataclass
class DeltaEffect:
    """The effect of applying one snapshot delta to a maintained core index.

    Attributes
    ----------
    increased:
        Vertices whose core number rose while applying the delta.
    decreased:
        Vertices whose core number fell while applying the delta.
    insertion_affected:
        The paper's ``VI``: vertices touched by the insertion phase whose core
        number is ``k - 1`` in the updated graph.
    deletion_affected:
        The paper's ``VR``: vertices touched by the deletion phase whose core
        number is ``k - 1`` in the updated graph.
    insertion_touched:
        Every vertex the insertion phase examined (endpoints of effective
        insertions, risen vertices and traversal-visited vertices) — recorded
        independently of ``k`` so long-lived consumers such as the streaming
        engine can invalidate derived state without fixing ``k`` up front.
    deletion_touched:
        Every vertex the deletion phase examined, symmetric to
        ``insertion_touched``.
    pre_update_core:
        Core number each touched vertex had *before* the delta (first-seen
        snapshot; vertices the delta created are recorded at their
        creation-time core 0, which correctly marks them as new at every
        ``k``).  Lets consumers reason about old-vs-new cores without copying
        the full core index.
    visited:
        Number of vertices visited by the maintenance traversals (used by the
        instrumentation figures).
    """

    increased: Set[Vertex] = field(default_factory=set)
    decreased: Set[Vertex] = field(default_factory=set)
    insertion_affected: Set[Vertex] = field(default_factory=set)
    deletion_affected: Set[Vertex] = field(default_factory=set)
    insertion_touched: Set[Vertex] = field(default_factory=set)
    deletion_touched: Set[Vertex] = field(default_factory=set)
    pre_update_core: Dict[Vertex, int] = field(default_factory=dict)
    visited: int = 0

    @property
    def affected(self) -> Set[Vertex]:
        """Union of the insertion- and deletion-affected vertex sets."""
        return self.insertion_affected | self.deletion_affected

    @property
    def touched(self) -> Set[Vertex]:
        """Every vertex examined by either maintenance phase (k-independent)."""
        return self.insertion_touched | self.deletion_touched

    @property
    def changed(self) -> Set[Vertex]:
        """Vertices whose core number actually moved (rose or fell)."""
        return self.increased | self.decreased


def bucket_cores(adj: List[Set[int]]) -> List[int]:
    """Core numbers of an id adjacency, by the bucket cascade.

    Batagelj and Zaversnik's O(m) cascade with lazy buckets: a vertex whose
    remaining degree falls to ``d`` goes into bucket ``d`` unless ``d`` is
    already below the level being drained, where it still has a pending
    entry in the current bucket.  Buckets drain in level order, and a
    vertex popped at ``level`` has core number ``level``.  A popped vertex's
    remaining degree is set negative and only falls from there, so its
    later entries are skipped and it is never bucketed again.  Only core
    numbers come out: no removal order, so no tie-break.
    """
    degree = [len(row) for row in adj]
    core = [0] * len(degree)
    buckets: List[List[int]] = [[] for _ in range(max(degree, default=-1) + 1)]
    for vid, value in enumerate(degree):
        buckets[value].append(vid)
    for level, bucket in enumerate(buckets):
        while bucket:
            vid = bucket.pop()
            if degree[vid] < 0:
                continue
            degree[vid] = -1
            core[vid] = level
            for neighbour in adj[vid]:
                remaining = degree[neighbour] - 1
                degree[neighbour] = remaining
                if remaining >= level:
                    buckets[remaining].append(neighbour)
    return core


class _IdKernel:
    """The maintained core numbers and the traversals over an id mirror.

    ``core_map`` (``{vertex: core}``) and the id-indexed list ``_icore``
    always agree: the traversals and :meth:`add_vertex` write both.  The
    maintainer mutates its graph first and then calls :meth:`insert` /
    :meth:`remove`, which update the mirror and run the traversal in one
    call, so every endpoint is looked up once.
    """

    __slots__ = ("core_map", "_icore", "_adj", "_ids", "_vertices", "_mirror")

    def __init__(self, graph: Graph, core: Optional[Dict[Vertex, int]] = None) -> None:
        mirror = DynamicCompactAdjacency.from_graph(graph)
        vertices = mirror.interner.vertices
        if core is None:
            self._icore = bucket_cores(mirror.adj)
            self.core_map: Dict[Vertex, int] = dict(zip(vertices, self._icore))
        else:
            self.core_map = {vertex: core.get(vertex, 0) for vertex in vertices}
            self._icore = list(self.core_map.values())
        self._mirror = mirror
        self._adj = mirror.adj
        self._ids = mirror.interner.ids
        self._vertices = vertices

    def add_vertex(self, vertex: Vertex) -> None:
        """Register a brand-new vertex at core number 0."""
        self._mirror.ensure_vertex(vertex)
        self._icore.append(0)
        self.core_map[vertex] = 0

    def id_core_numbers(self) -> Dict[Vertex, int]:
        """The id list read back as ``{vertex: core}`` (validation only)."""
        return dict(zip(self._vertices, self._icore))

    # -- insertion traversal (Lemmas 1-2) ----------------------------------
    def insert(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        """Mirror a just-added edge and run the insertion traversal.

        Returns ``(increased, visited)``: the vertices whose core number
        rose, and every vertex the traversal examined.
        """
        u_id, v_id = self._ids[u], self._ids[v]
        adj = self._adj
        adj[u_id].add(v_id)
        adj[v_id].add(u_id)
        icore = self._icore
        root_core = min(icore[u_id], icore[v_id])
        roots = [w for w in (u_id, v_id) if icore[w] == root_core]

        # Subcore: shell-root_core vertices reachable from the roots through
        # shell-root_core vertices.  Only these can rise, and by at most 1.
        candidates: Set[int] = set()
        stack: List[int] = []
        for root in roots:
            if root not in candidates:
                candidates.add(root)
                stack.append(root)
        while stack:
            current = stack.pop()
            for neighbour in adj[current]:
                if icore[neighbour] == root_core and neighbour not in candidates:
                    candidates.add(neighbour)
                    stack.append(neighbour)

        # Eviction: a candidate can rise only if it keeps more than root_core
        # neighbours among (higher-core vertices ∪ surviving candidates).
        support: Dict[int, int] = {}
        for candidate in candidates:
            support[candidate] = len(
                [
                    neighbour
                    for neighbour in adj[candidate]
                    if icore[neighbour] > root_core or neighbour in candidates
                ]
            )
        evict_queue = [w for w, s in support.items() if s <= root_core]
        evicted: Set[int] = set()
        while evict_queue:
            w = evict_queue.pop()
            if w in evicted:
                continue
            evicted.add(w)
            for neighbour in adj[w]:
                if neighbour in candidates and neighbour not in evicted:
                    support[neighbour] -= 1
                    if support[neighbour] <= root_core:
                        evict_queue.append(neighbour)

        risen = root_core + 1
        vertices = self._vertices
        core_map = self.core_map
        increased: Set[Vertex] = set()
        for w in candidates - evicted:
            icore[w] = risen
            vertex = vertices[w]
            core_map[vertex] = risen
            increased.add(vertex)
        return increased, {vertices[w] for w in candidates}

    # -- deletion cascade (Lemmas 3-4) --------------------------------------
    def remove(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        """Mirror a just-removed edge and run the deletion cascade.

        Returns ``(decreased, visited)``.
        """
        u_id, v_id = self._ids[u], self._ids[v]
        adj = self._adj
        adj[u_id].discard(v_id)
        adj[v_id].discard(u_id)
        icore = self._icore
        root_core = min(icore[u_id], icore[v_id])
        visited: Set[int] = set()

        # Support of a shell-root_core vertex: neighbours with core >= root_core
        # (its max core degree).  A vertex drops when support falls below core.
        support: Dict[int, int] = {}
        dropped: Set[int] = set()
        queue: List[int] = []
        for w in (u_id, v_id):
            if icore[w] == root_core and w not in dropped:
                visited.add(w)
                support[w] = len([x for x in adj[w] if icore[x] >= root_core])
                if support[w] < root_core:
                    dropped.add(w)
                    queue.append(w)

        lowered = root_core - 1
        vertices = self._vertices
        core_map = self.core_map
        while queue:
            w = queue.pop()
            # Visit neighbours before lowering core(w): their lazily computed
            # support still counts w, and the explicit decrement below then
            # accounts for w exactly once.
            for x in adj[w]:
                if icore[x] != root_core or x in dropped:
                    continue
                visited.add(x)
                if x not in support:
                    support[x] = len([y for y in adj[x] if icore[y] >= root_core])
                # ``w`` no longer counts towards x's support.
                support[x] -= 1
                if support[x] < root_core:
                    dropped.add(x)
                    queue.append(x)
            icore[w] = lowered
            core_map[vertices[w]] = lowered

        return {vertices[w] for w in dropped}, {vertices[w] for w in visited}


class CoreMaintainer:
    """Maintains core numbers of a graph under edge insertions and deletions."""

    def __init__(
        self,
        graph: Graph,
        copy_graph: bool = True,
        core: Optional[Dict[Vertex, int]] = None,
    ) -> None:
        """Wrap ``graph``; compute core numbers unless ``core`` supplies them.

        ``core`` exists for checkpoint restore: a caller that persisted the
        maintained core numbers alongside the graph can resume without paying
        a fresh decomposition.  The values are trusted; :meth:`validate`
        cross-checks them on demand.
        """
        self._graph = graph.copy() if copy_graph else graph
        self._kernel = _IdKernel(self._graph, core)
        self._visited_last = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The maintained graph (mutated in place by the update methods)."""
        return self._graph

    def core_numbers(self) -> Dict[Vertex, int]:
        """Return a copy of the maintained core numbers."""
        return dict(self._kernel.core_map)

    def core(self, vertex: Vertex) -> int:
        """Return the maintained core number of ``vertex``."""
        return self._kernel.core_map[vertex]

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        """Return ``{v : core(v) >= k}`` under the maintained core numbers."""
        return {vertex for vertex, value in self._kernel.core_map.items() if value >= k}

    def shell_vertices(self, k: int) -> Set[Vertex]:
        """Return ``{v : core(v) == k}`` under the maintained core numbers."""
        return {vertex for vertex, value in self._kernel.core_map.items() if value == k}

    # ------------------------------------------------------------------
    # Single-edge updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Insert edge ``(u, v)`` and return the vertices whose core increased.

        Inserting an edge that already exists is a no-op returning the empty
        set.  New endpoints are added with core number updated from scratch
        locally (a fresh vertex starts at core 0 before the edge is counted).
        """
        for vertex in (u, v):
            if not self._graph.has_vertex(vertex):
                self._graph.add_vertex(vertex)
                self._kernel.add_vertex(vertex)
        if not self._graph.add_edge(u, v):
            return set()
        increased, visited = self._kernel.insert(u, v)
        self._visited_last = len(visited)
        self._visited_vertices_last = visited
        return increased

    def remove_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Remove edge ``(u, v)`` and return the vertices whose core decreased.

        Removing an absent edge is a no-op returning the empty set.
        """
        if not self._graph.has_edge(u, v):
            return set()
        self._graph.remove_edge(u, v)
        decreased, visited = self._kernel.remove(u, v)
        self._visited_last = len(visited)
        self._visited_vertices_last = visited
        return decreased

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------
    def insert_edges(self, edges: Iterable[Edge]) -> Set[Vertex]:
        """Insert every edge of ``edges`` in one pass.

        Returns the union of all vertices whose core number rose across the
        whole batch (computed while inserting — no second scan).
        """
        increased: Set[Vertex] = set()
        for u, v in edges:
            increased.update(self.insert_edge(u, v))
        return increased

    def remove_edges(self, edges: Iterable[Edge]) -> Set[Vertex]:
        """Remove every edge of ``edges`` in one pass.

        Returns the union of all vertices whose core number fell across the
        whole batch (computed while removing — no second scan).
        """
        decreased: Set[Vertex] = set()
        for u, v in edges:
            decreased.update(self.remove_edge(u, v))
        return decreased

    def apply_delta(self, delta: EdgeDelta, k: Optional[int] = None) -> DeltaEffect:
        """Apply one snapshot delta (insertions first, then deletions).

        When ``k`` is given (an integer >= 1), the returned
        :class:`DeltaEffect` also carries the ``VI`` / ``VR`` candidate pools
        for that ``k`` (vertices touched by the respective phase whose
        updated core number is ``k - 1``).  The k-independent ``touched``
        sets are always recorded, counting only *effective* operations —
        inserting a present edge or removing an absent one leaves no trace,
        so consumers can treat an empty ``touched`` as "the graph did not
        change".
        """
        if k is not None:
            require_int("k", k, 1)
        effect = DeltaEffect()
        if delta.is_empty():
            return effect

        pre_core = effect.pre_update_core
        core_map = self._kernel.core_map
        for u, v in delta.inserted:
            if self._graph.has_edge(u, v):
                continue
            for endpoint in (u, v):
                if endpoint not in pre_core:
                    value = core_map.get(endpoint)
                    if value is not None:
                        pre_core[endpoint] = value
            increased = self.insert_edge(u, v)
            for vertex in self._visited_vertices_last:
                if vertex not in pre_core:
                    # An insertion raises a risen vertex by exactly 1.
                    pre_core[vertex] = core_map[vertex] - (1 if vertex in increased else 0)
            effect.increased |= increased
            effect.insertion_touched.update((u, v))
            effect.insertion_touched |= increased
            effect.insertion_touched |= self._visited_vertices_last
            effect.visited += self._visited_last

        for u, v in delta.removed:
            if not self._graph.has_edge(u, v):
                continue
            for endpoint in (u, v):
                if endpoint not in pre_core:
                    pre_core[endpoint] = core_map[endpoint]
            decreased = self.remove_edge(u, v)
            for vertex in self._visited_vertices_last:
                if vertex not in pre_core:
                    # A deletion lowers a dropped vertex by exactly 1.
                    pre_core[vertex] = core_map[vertex] + (1 if vertex in decreased else 0)
            effect.decreased |= decreased
            effect.deletion_touched.update((u, v))
            effect.deletion_touched |= decreased
            effect.deletion_touched |= self._visited_vertices_last
            effect.visited += self._visited_last

        if k is not None:
            target = k - 1
            effect.insertion_affected = {
                vertex for vertex in effect.insertion_touched if core_map.get(vertex) == target
            }
            effect.deletion_affected = {
                vertex for vertex in effect.deletion_touched if core_map.get(vertex) == target
            }
        return effect

    def refresh_from_graph(self) -> None:
        """Recompute all core numbers from the current graph state.

        Used when a caller mutates the maintained graph wholesale (e.g. a
        snapshot delta so large that per-edge maintenance would cost more than
        one fresh decomposition — the situation the paper describes for
        high-churn snapshots).  The kernel is rebuilt the way the constructor
        builds it (the caller may have added or removed arbitrary edges and
        vertices).
        """
        self._kernel = _IdKernel(self._graph)
        self._visited_last = 0
        self._visited_vertices_last = set()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Recompute core numbers with a full peel; raise on any divergence.

        Both stores are checked against the recomputation: the core map the
        views read and the id list the traversals read.
        """
        fresh = recompute_core_numbers(self._graph)
        for store, maintained in (
            ("core map", self._kernel.core_map),
            ("id list", self._kernel.id_core_numbers()),
        ):
            if fresh != maintained:
                differing = {
                    vertex: (maintained.get(vertex), fresh.get(vertex))
                    for vertex in set(fresh) | set(maintained)
                    if maintained.get(vertex) != fresh.get(vertex)
                }
                raise InvariantViolationError(
                    f"maintained core numbers ({store}) diverged from "
                    f"recomputation: {differing}"
                )

    # Default values so apply_delta can read them even before any update ran.
    _visited_vertices_last: Set[Vertex] = frozenset()  # type: ignore[assignment]
    _visited_last: int = 0
