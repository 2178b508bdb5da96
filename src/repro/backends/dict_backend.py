"""The ``dict`` execution backend: reference kernels over the adjacency-set graph.

This is the historical implementation of every kernel, operating directly on
hashable vertices with no setup or translation cost — the backend ``auto``
picks when numpy is unavailable, and the reference the numpy backend is
property-tested against.  The follower cascades delegate to the public
functions in :mod:`repro.anchored.followers` (which double as the
paper-facing reference algorithms), and the plain k-core to the one
deletion cascade, :func:`repro.cores.decomposition.k_core_cascade`; the
capped bucket cascade and the shell ranking live here.  The full peel is
no backend kernel (:func:`repro.cores.decomposition.anchored_core_decomposition`).
"""

from __future__ import annotations

import heapq
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from repro.backends.base import (
    BACKEND_DICT,
    CoreIndexKernel,
    ExecutionBackend,
)
from repro.anchored.followers import (
    commit_anchor_cores,
    full_shell_followers,
    marginal_followers,
)
from repro.cores.decomposition import ANCHOR_CORE, k_core_cascade
from repro.errors import VertexNotFoundError
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


def dict_capped_cores(
    graph: Graph, anchor_set: FrozenSet[Vertex], k: int
) -> Dict[Vertex, float]:
    """Anchored core numbers capped at ``k`` over the adjacency-set graph:
    ``min(core, k)`` for every vertex, anchors at
    :data:`~repro.cores.decomposition.ANCHOR_CORE` — the state the dict
    kernel's ``refresh`` builds, without a full peel.

    The bucket cascade of Batagelj and Zaversnik ("An O(m) Algorithm for
    Cores Decomposition of Networks", 2003), stopped at level ``k``: a
    vertex whose remaining degree falls to ``d < k`` goes into bucket
    ``max(d, level)``, buckets drain in level order, and a vertex popped at
    ``level`` has core number ``level``.  Vertices never bucketed keep
    ``k``.  Anchors are never decremented, so they support their neighbours
    throughout.  Only ``min(k, max degree + 1)`` buckets exist, so a huge
    ``k`` allocates and loops over nothing per level.  The work is the
    edges of the vertices below ``k``, not the whole graph.  The numpy
    kernel builds the same state with the peel's waves stopped before
    ``k``.
    """
    core: Dict[Vertex, float] = {}
    degree: Dict[Vertex, int] = {}
    low: List[Vertex] = []
    for vertex in graph.vertices():
        if vertex in anchor_set:
            core[vertex] = ANCHOR_CORE
            continue
        core[vertex] = k
        value = degree[vertex] = graph.degree(vertex)
        if value < k:
            low.append(vertex)
    buckets: List[List[Vertex]] = [
        [] for _ in range(min(k, max(degree.values(), default=-1) + 1))
    ]
    for vertex in low:
        buckets[degree[vertex]].append(vertex)
    # Anchors and popped vertices leave ``degree``: neither is decremented.
    for level, bucket in enumerate(buckets):
        while bucket:
            vertex = bucket.pop()
            if vertex not in degree:
                continue
            del degree[vertex]
            core[vertex] = level
            for neighbour in graph.neighbors(vertex):
                remaining = degree.get(neighbour)
                if remaining is None:
                    continue
                remaining -= 1
                degree[neighbour] = remaining
                if remaining < k:
                    buckets[remaining if remaining > level else level].append(neighbour)
    return core


def build_shell_index(items: Iterable[Tuple[object, float]]) -> Dict[float, Set[object]]:
    """``{core value: member set}`` from ``(member, core value)`` pairs.

    The shell index behind the kernel's O(#levels)/O(|shell|) size queries;
    rebuilt on every refresh and patched by :func:`apply_shell_moves`
    on incremental commits.
    """
    shells: Dict[float, Set[object]] = {}
    for member, value in items:
        members = shells.get(value)
        if members is None:
            members = shells[value] = set()
        members.add(member)
    return shells


def apply_shell_moves(shells, touched, core) -> None:
    """Move every touched member from its old shell to its current one.

    ``touched`` is the ``[(member, old core value)]`` list an incremental
    commit returns, ``core`` the already-updated core mapping.  Emptied
    shells are dropped so iteration over the index never visits dead levels.
    """
    for member, old in touched:
        members = shells.get(old)
        if members is not None:
            members.discard(member)
            if not members:
                del shells[old]
        value = core[member]
        members = shells.get(value)
        if members is None:
            members = shells[value] = set()
        members.add(member)


class DictCoreIndexKernel(CoreIndexKernel):
    """Anchored-core-index state over the adjacency-set graph itself.

    Alongside the core/rank maps the kernel maintains a *shell index*
    (``{core value: member set}``): the size queries the greedy loops issue
    every round (``count_core_at_least``, ``shell_vertices``) and the
    candidate scan then cost O(#levels) / O(|shell|) instead of a full O(n)
    scan.  The index is rebuilt on :meth:`refresh` and updated for just the
    touched vertices on :meth:`commit_anchor`.  :meth:`refresh` runs the
    capped bucket cascade :func:`dict_capped_cores` and orders only the
    ``(k-1)``-shell; it never peels the graph.

    Every commit re-ranks the whole ``(k-1)``-shell in full-peel order,
    which meets the capped contract (it asks for that order only within
    each shell component).  The numpy kernel re-ranks only the components
    a commit touches.  This one keeps the whole-shell pass on purpose:
    perfbench's exact oracle is the dict Greedy, so the numpy path's shell
    ranking is checked against an independent one, and ``auto`` runs every
    benchmarked solve on numpy.
    """

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._core: Dict[Vertex, float] = {}
        self._rank: Dict[Vertex, int] = {}
        self._shells: Dict[float, Set[Vertex]] = {}

    def refresh(self, anchors: Set[Vertex], k: int) -> None:
        self._core = dict_capped_cores(self._graph, frozenset(anchors), k)
        # Every vertex below the shell ranks 0; _rank_shell ranks the shell.
        self._rank = dict.fromkeys(self._core, 0)
        self._shells = build_shell_index(self._core.items())
        self._rank_shell(k)

    def _shell_order(self, members: List[Vertex], level: float) -> List[Vertex]:
        """Removal order within one shell (the Phase-B reconstruction).

        With core numbers fixed, the reference heap peel's order restricted
        to shell ``level`` is reproduced by a heap cascade over the
        same-shell subgraph: members in tie-break order, each starting at
        its count of ``core >= level`` neighbours (anchors are infinity and
        count), only same-shell removals decrement.  The hashable-vertex
        twin of the numpy backend's ``_shell_order``.
        """
        graph = self._graph
        core = self._core
        member_set = set(members)
        effective: Dict[Vertex, int] = {}
        heap: List[Tuple[int, Tuple[str, str], Vertex]] = []
        for v in members:
            degree = sum(1 for w in graph.neighbors(v) if core[w] >= level)
            effective[v] = degree
            heap.append((degree, tie_break_key(v), v))
        heapq.heapify(heap)
        popped: Set[Vertex] = set()
        shell_order: List[Vertex] = []
        while heap:
            degree, _, v = heapq.heappop(heap)
            if v in popped or degree != effective[v]:
                continue
            popped.add(v)
            shell_order.append(v)
            for w in graph.neighbors(v):
                if w in member_set and w not in popped:
                    effective[w] -= 1
                    heapq.heappush(heap, (effective[w], tie_break_key(w), w))
        return shell_order

    def commit_anchor(
        self, vertex: Vertex, anchors: Set[Vertex], k: int
    ) -> FrozenSet[Vertex]:
        """Capped commit (the delta-refresh contract of
        :mod:`repro.backends.base`): the riser cascades of
        :func:`~repro.anchored.followers.commit_anchor_cores` at levels up to
        ``k``, then one within-shell cascade over the ``(k-1)``-shell.
        """
        touched = commit_anchor_cores(self._graph, vertex, self._core, cap=k)
        apply_shell_moves(self._shells, touched, self._core)
        self._rank_shell(k)
        return frozenset(v for v, _ in touched)

    def _rank_shell(self, k: int) -> None:
        """Rank the ``(k-1)``-shell in full-peel order, offset by n so it
        ranks after every lower vertex."""
        members = sorted(self._shells.get(k - 1, ()), key=tie_break_key)
        base = len(self._core)
        rank = self._rank
        for position, v in enumerate(self._shell_order(members, k - 1)):
            rank[v] = base + position

    def removal_ranks(self) -> Mapping[Vertex, int]:
        return dict(self._rank)

    def core_of(self, vertex: Vertex) -> float:
        try:
            return self._core[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def core_numbers(self) -> Mapping[Vertex, float]:
        return self._core

    def vertices_with_core_at_least(self, k: int) -> Set[Vertex]:
        result: Set[Vertex] = set()
        for value, members in self._shells.items():
            if value >= k:
                result.update(members)
        return result

    def count_core_at_least(self, k: int) -> int:
        return sum(
            len(members) for value, members in self._shells.items() if value >= k
        )

    def shell_vertices(self, value: int) -> Set[Vertex]:
        return set(self._shells.get(value, ()))

    def plain_k_core(self, k: int) -> Set[Vertex]:
        return k_core_cascade(self._graph, k)

    def candidate_anchors(self, k: int, order_pruning: bool) -> Set[Vertex]:
        # Walk the (k-1)-shell: a candidate is a neighbour of a shell member
        # below k (anchors carry core infinity, which excludes them), ranked
        # before that member under pruning.
        core = self._core
        rank = self._rank
        neighbors = self._graph.neighbors
        candidates: Set[Vertex] = set()
        for member in self._shells.get(k - 1, ()):
            member_rank = rank[member]
            for vertex in neighbors(member):
                if core[vertex] < k and (not order_pruning or rank[vertex] < member_rank):
                    candidates.add(vertex)
        return candidates

    def non_core_vertices(self, k: int) -> Set[Vertex]:
        return {vertex for vertex, value in self._core.items() if value < k}

    def marginal_followers(
        self, k: int, candidate: Vertex, full_shell: bool
    ) -> Tuple[Set[Vertex], int]:
        visit_log: List[Vertex] = []
        if full_shell:
            gained = full_shell_followers(self._graph, k, candidate, self._core, visit_log)
        else:
            gained = marginal_followers(self._graph, k, candidate, self._core, visit_log)
        return gained, len(visit_log)

    def marginal_followers_with_region(
        self, k: int, candidate: Vertex
    ) -> Tuple[Set[Vertex], int, FrozenSet[Vertex]]:
        visit_log: List[Vertex] = []
        region: Set[Vertex] = set()
        gained = marginal_followers(
            self._graph, k, candidate, self._core, visit_log, region_out=region
        )
        return gained, len(visit_log), frozenset(region)


class DictBackend(ExecutionBackend):
    """The reference backend: every kernel over the adjacency-set graph."""

    name = BACKEND_DICT

    def build_core_index(self, graph: Graph) -> DictCoreIndexKernel:
        return DictCoreIndexKernel(graph)
