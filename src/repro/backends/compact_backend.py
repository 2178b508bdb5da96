"""The ``compact`` execution backend: flat integer-array kernels.

Wires the interned CSR snapshot layer of :mod:`repro.graph.compact` and the
flat-array kernel primitives (:func:`repro.cores.decomposition.compact_peel`,
:func:`repro.cores.decomposition.compact_k_core_ids`,
:func:`repro.anchored.followers.compact_marginal_followers`,
:func:`repro.anchored.followers.compact_full_shell_followers`) into the
:class:`~repro.backends.base.ExecutionBackend` surface.  Because ordered
snapshots intern vertices in :func:`repro.ordering.tie_break_key` order, the
packed single-int heap peel reproduces the dict backend's removal order
bit-for-bit; everything else is id arithmetic plus one translation at the API
boundary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.anchored.followers import (
    compact_full_shell_followers,
    compact_marginal_followers,
)
from repro.backends.base import (
    BACKEND_COMPACT,
    CoreIndexKernel,
    ExecutionBackend,
    MaintenanceKernel,
)
from repro.cores.decomposition import (
    CoreDecomposition,
    apply_shell_moves,
    build_shell_index,
    capped_cores_ids,
    commit_anchor_ids,
    compact_k_core_ids,
    compact_peel,
    shell_order_ids,
)
from repro.graph.compact import CompactGraph, DynamicCompactAdjacency
from repro.graph.static import Graph, Vertex


class CompactCoreIndexKernel(CoreIndexKernel):
    """Anchored-core-index state over one ordered CSR snapshot.

    The snapshot is built once for the kernel's lifetime (the index contract
    forbids graph mutation) and every refresh, scan and cascade runs over
    flat int arrays indexed by vertex id.  A shell index (``{core value:
    member id set}``) backs the per-round size queries and the candidate
    scan in O(#levels) / O(|shell|) instead of O(n) scans.  :meth:`refresh`
    runs the capped bucket cascade of
    :func:`repro.cores.decomposition.capped_cores_ids` and
    :meth:`commit_anchor` the capped riser cascades of
    :func:`repro.cores.decomposition.commit_anchor_ids`; both then re-order
    the ``(k-1)``-shell.  Neither peels the snapshot.
    """

    def __init__(self, graph: Graph) -> None:
        self._cgraph = CompactGraph.from_graph(graph, ordered=True)
        self._core_ids: List[float] = []
        self._rank_ids: List[int] = []
        self._shell_ids: Dict[float, Set[int]] = {}
        self._core_map_cache: Optional[Dict[Vertex, float]] = None

    def refresh(self, anchors: Set[Vertex], k: int) -> None:
        cgraph = self._cgraph
        anchor_ids = [cgraph.interner.id_of(anchor) for anchor in anchors]
        self._core_ids = capped_cores_ids(cgraph.indptr, cgraph.indices, anchor_ids, k)
        # Every vertex below the shell ranks 0; _rank_shell ranks the shell.
        self._rank_ids = [0] * len(self._core_ids)
        self._shell_ids = build_shell_index(enumerate(self._core_ids))
        self._rank_shell(k)
        self._core_map_cache = None

    def commit_anchor(
        self, vertex: Vertex, anchors: Set[Vertex], k: int
    ) -> Optional[FrozenSet[Vertex]]:
        cgraph = self._cgraph
        touched = commit_anchor_ids(
            cgraph.indptr, cgraph.indices, self._core_ids, cgraph.interner.id_of(vertex), k
        )
        apply_shell_moves(self._shell_ids, touched, self._core_ids)
        self._rank_shell(k)
        self._core_map_cache = None
        vertices = cgraph.interner.vertices
        return frozenset(vertices[vid] for vid, _ in touched)

    def _rank_shell(self, k: int) -> None:
        """Rank the ``(k-1)``-shell in full-peel order, offset by n so it
        ranks after every lower vertex."""
        cgraph = self._cgraph
        members = sorted(self._shell_ids.get(k - 1, ()))
        shell_order = shell_order_ids(
            cgraph.indptr, cgraph.indices, self._core_ids, members, k - 1
        )
        base = len(self._core_ids)
        rank_ids = self._rank_ids
        for position, vid in enumerate(shell_order):
            rank_ids[vid] = base + position

    def removal_ranks(self) -> Mapping[Vertex, int]:
        vertices = self._cgraph.interner.vertices
        rank_ids = self._rank_ids
        return {vertices[vid]: rank_ids[vid] for vid in range(len(vertices))}

    def core_of(self, vertex: Vertex) -> float:
        return self._core_ids[self._cgraph.interner.id_of(vertex)]

    def core_numbers(self) -> Mapping[Vertex, float]:
        if self._core_map_cache is None:
            vertices = self._cgraph.interner.vertices
            core_ids = self._core_ids
            self._core_map_cache = {
                vertices[vid]: core_ids[vid] for vid in range(len(vertices))
            }
        return self._core_map_cache

    def vertices_with_core_at_least(self, k: int) -> Set[Vertex]:
        result: Set[int] = set()
        for value, members in self._shell_ids.items():
            if value >= k:
                result.update(members)
        return self._cgraph.interner.translate(result)

    def count_core_at_least(self, k: int) -> int:
        return sum(
            len(members) for value, members in self._shell_ids.items() if value >= k
        )

    def shell_vertices(self, value: int) -> Set[Vertex]:
        return self._cgraph.interner.translate(self._shell_ids.get(value, ()))

    def plain_k_core(self, k: int) -> Set[Vertex]:
        return self._cgraph.interner.translate(compact_k_core_ids(self._cgraph, k))

    def candidate_anchors(self, k: int, order_pruning: bool) -> Set[Vertex]:
        # Walk the (k-1)-shell: a candidate is a neighbour of a shell member
        # below k (anchored ids carry core infinity, which excludes them),
        # ranked before that member under pruning.
        cgraph = self._cgraph
        indptr = cgraph.indptr
        indices = cgraph.indices
        core_ids = self._core_ids
        rank_ids = self._rank_ids
        candidates: Set[int] = set()
        for member in self._shell_ids.get(k - 1, ()):
            member_rank = rank_ids[member]
            for position in range(indptr[member], indptr[member + 1]):
                vid = indices[position]
                if core_ids[vid] < k and (not order_pruning or rank_ids[vid] < member_rank):
                    candidates.add(vid)
        return cgraph.interner.translate(candidates)

    def non_core_vertices(self, k: int) -> Set[Vertex]:
        core_ids = self._core_ids
        return self._cgraph.interner.translate(
            vid for vid in range(len(core_ids)) if core_ids[vid] < k
        )

    def marginal_followers(
        self, k: int, candidate: Vertex, full_shell: bool
    ) -> Tuple[Set[Vertex], int]:
        candidate_id = self._cgraph.interner.id_of(candidate)
        if full_shell:
            gained_ids, visited = compact_full_shell_followers(
                self._cgraph, k, candidate_id, self._core_ids
            )
        else:
            gained_ids, visited = compact_marginal_followers(
                self._cgraph, k, candidate_id, self._core_ids
            )
        return self._cgraph.interner.translate(gained_ids), visited

    def marginal_followers_with_region(
        self, k: int, candidate: Vertex
    ) -> Tuple[Set[Vertex], int, Optional[FrozenSet[Vertex]]]:
        candidate_id = self._cgraph.interner.id_of(candidate)
        region_ids: Set[int] = set()
        gained_ids, visited = compact_marginal_followers(
            self._cgraph, k, candidate_id, self._core_ids, region_out=region_ids
        )
        translate = self._cgraph.interner.translate
        return translate(gained_ids), visited, frozenset(translate(region_ids))


class CompactMaintenanceKernel(MaintenanceKernel):
    """Maintenance traversals over an integer-id adjacency mirror.

    The maintained graph stays the source of truth for the structure; this
    kernel mirrors it into :class:`~repro.graph.compact.DynamicCompactAdjacency`
    (one set of neighbour ids per vertex) and keeps the core numbers in a
    flat list indexed by id, so the subcore/eviction traversals run entirely
    over small ints.  Mirror upkeep is O(1) per edge operation.

    The traversal bodies are deliberate twins of
    :class:`~repro.backends.dict_backend.DictMaintenanceKernel` (hot inner
    loops, no shared indirection); any algorithmic change must land in both,
    and the cross-backend equivalence suite is the guard that they never
    diverge.
    """

    def __init__(self, graph: Graph, core: Dict[Vertex, int]) -> None:
        self._mirror = DynamicCompactAdjacency.from_graph(graph)
        self._icore: List[int] = [
            core.get(vertex, 0) for vertex in self._mirror.interner.vertices
        ]

    # -- structure upkeep -------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        vid = self._mirror.ensure_vertex(vertex)
        while len(self._icore) <= vid:
            self._icore.append(0)

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        interner = self._mirror.interner
        self._mirror.add_edge_ids(interner.id_of(u), interner.id_of(v))

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        interner = self._mirror.interner
        self._mirror.remove_edge_ids(interner.id_of(u), interner.id_of(v))

    # -- views -------------------------------------------------------------
    def core(self, vertex: Vertex) -> int:
        vid = self._mirror.interner.get_id(vertex)
        if vid < 0:
            raise KeyError(vertex)
        return self._icore[vid]

    def core_get(self, vertex: Vertex, default: Optional[int] = None) -> Optional[int]:
        vid = self._mirror.interner.get_id(vertex)
        return default if vid < 0 else self._icore[vid]

    def core_numbers(self) -> Dict[Vertex, int]:
        # The interner's vertex list is kept in exact sync with the graph,
        # so zipping it against the core array avoids n hash lookups.
        return dict(zip(self._mirror.interner.vertices, self._icore))

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        return {
            vertex
            for vertex, value in zip(self._mirror.interner.vertices, self._icore)
            if value >= k
        }

    def shell_vertices(self, k: int) -> Set[Vertex]:
        return {
            vertex
            for vertex, value in zip(self._mirror.interner.vertices, self._icore)
            if value == k
        }

    # -- insertion traversal (Lemmas 1-2) ----------------------------------
    def process_insertion(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        interner = self._mirror.interner
        u_id, v_id = interner.id_of(u), interner.id_of(v)
        icore = self._icore
        adj = self._mirror.adj
        root_core = min(icore[u_id], icore[v_id])
        roots = [w for w in (u_id, v_id) if icore[w] == root_core]

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

        support: Dict[int, int] = {}
        for candidate in candidates:
            support[candidate] = sum(
                1
                for neighbour in adj[candidate]
                if icore[neighbour] > root_core or neighbour in candidates
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

        increased_ids = candidates - evicted
        risen = root_core + 1
        for w in increased_ids:
            icore[w] = risen
        vertices = interner.vertices
        return (
            {vertices[w] for w in increased_ids},
            {vertices[w] for w in candidates},
        )

    # -- deletion cascade (Lemmas 3-4) --------------------------------------
    def process_deletion(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        interner = self._mirror.interner
        u_id, v_id = interner.id_of(u), interner.id_of(v)
        icore = self._icore
        adj = self._mirror.adj
        root_core = min(icore[u_id], icore[v_id])
        visited: Set[int] = set()

        support: Dict[int, int] = {}

        def compute_support(w: int) -> int:
            return sum(1 for x in adj[w] if icore[x] >= root_core)

        dropped: Set[int] = set()
        queue: List[int] = []
        for w in (u_id, v_id):
            if icore[w] == root_core and w not in dropped:
                visited.add(w)
                support[w] = compute_support(w)
                if support[w] < root_core:
                    dropped.add(w)
                    queue.append(w)

        while queue:
            w = queue.pop()
            for x in adj[w]:
                if icore[x] != root_core or x in dropped:
                    continue
                visited.add(x)
                if x not in support:
                    support[x] = compute_support(x)
                support[x] -= 1
                if support[x] < root_core:
                    dropped.add(x)
                    queue.append(x)
            icore[w] = root_core - 1

        vertices = interner.vertices
        return {vertices[w] for w in dropped}, {vertices[w] for w in visited}


class CompactBackend(ExecutionBackend):
    """Flat integer-array kernels over interned CSR snapshots."""

    name = BACKEND_COMPACT

    def decompose(self, graph: Graph, anchors: FrozenSet[Vertex] = frozenset()):
        anchor_set = frozenset(anchors)
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        interner = cgraph.interner
        anchor_ids = [interner.id_of(anchor) for anchor in anchor_set]
        core_by_id, order_ids = compact_peel(cgraph, anchor_ids)
        vertices = interner.vertices
        core = {vertices[vid]: core_by_id[vid] for vid in range(len(vertices))}
        order = tuple(vertices[vid] for vid in order_ids)
        return CoreDecomposition(core=core, order=order, anchors=anchor_set)

    def k_core(self, graph: Graph, k: int, anchors: Iterable[Vertex] = ()) -> Set[Vertex]:
        cgraph = CompactGraph.from_graph(graph, ordered=False)
        anchor_ids = [cgraph.interner.id_of(anchor) for anchor in anchors]
        return cgraph.interner.translate(compact_k_core_ids(cgraph, k, anchor_ids))

    def remaining_degrees(
        self, graph: Graph, rank: Mapping[Vertex, int]
    ) -> Dict[Vertex, int]:
        return self._remaining_degrees(CompactGraph.from_graph(graph, ordered=False), rank)

    @staticmethod
    def _remaining_degrees(
        cgraph: CompactGraph, rank: Mapping[Vertex, int]
    ) -> Dict[Vertex, int]:
        """``deg+`` over an already-built CSR snapshot: one int-array pass."""
        indptr = cgraph.indptr
        indices = cgraph.indices
        vertices = cgraph.interner.vertices
        rank_ids = [rank.get(vertex, -1) for vertex in vertices]
        deg_plus: Dict[Vertex, int] = {}
        for vid in range(len(vertices)):
            own_rank = rank_ids[vid]
            if own_rank < 0:
                continue
            count = 0
            for position in range(indptr[vid], indptr[vid + 1]):
                if rank_ids[indices[position]] > own_rank:
                    count += 1
            deg_plus[vertices[vid]] = count
        return deg_plus

    def korder(self, graph: Graph):
        """One CSR snapshot amortised over both the peel and the deg+ pass."""
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        vertices = cgraph.interner.vertices
        core_ids, order_ids = compact_peel(cgraph)
        decomposition = CoreDecomposition(
            core={vertices[vid]: core_ids[vid] for vid in range(len(vertices))},
            order=tuple(vertices[vid] for vid in order_ids),
        )
        rank = {vertex: position for position, vertex in enumerate(decomposition.order)}
        return decomposition, self._remaining_degrees(cgraph, rank)

    def build_core_index(self, graph: Graph) -> CompactCoreIndexKernel:
        return CompactCoreIndexKernel(graph)

    def build_maintenance(
        self, graph: Graph, core: Dict[Vertex, int]
    ) -> CompactMaintenanceKernel:
        return CompactMaintenanceKernel(graph, core)
