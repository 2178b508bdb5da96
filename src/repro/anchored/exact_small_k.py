"""Exact anchored k-core selection for k = 1 and k = 2 (Theorem 1).

The paper proves the AVT problem is polynomial for ``k <= 2`` and NP-hard from
``k = 3`` on.  This module provides the polynomial exact solvers:

* ``k = 1``: anchoring can never create followers (a vertex with an engaged
  neighbour is already in the 1-core), so the optimum simply anchors isolated
  vertices — they join ``C_1(S)`` themselves and nothing else changes.
* ``k = 2``: the vertices outside the 2-core form a forest in which every tree
  touches the 2-core in at most one vertex (two attachment points would close
  a cycle through the 2-core and pull the path into it).  Anchoring a set
  ``A`` inside a tree drags exactly the Steiner tree spanned by ``A`` and the
  tree's attachment point (if any) into the anchored 2-core.  Maximising
  followers therefore reduces to a Steiner-coverage problem on trees, solved
  exactly by the classic farthest-point greedy inside each tree (optimal on
  trees because marginal path gains are the branch lengths of a fixed
  decomposition) combined with a knapsack over trees for the budget split.

Both solvers return the same :class:`~repro.anchored.result.AnchoredKCoreResult`
as the heuristics, so they can be dropped into the trackers and compared
against brute force in the tests.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.anchored.followers import compute_followers
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.cores.decomposition import k_core
from repro.errors import ParameterError, require_int
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


# ---------------------------------------------------------------------------
# k = 1
# ---------------------------------------------------------------------------
def solve_k1(graph: Graph, budget: int) -> AnchoredKCoreResult:
    """Exact anchored 1-core selection: anchor isolated vertices, no followers."""
    require_int("budget", budget, 0)
    started = time.perf_counter()
    isolated = sorted(
        (vertex for vertex in graph.vertices() if graph.degree(vertex) == 0),
        key=tie_break_key,
    )
    anchors = tuple(isolated[:budget])
    core = {vertex for vertex in graph.vertices() if graph.degree(vertex) >= 1}
    stats = SolverStats(
        candidates_evaluated=len(isolated),
        visited_vertices=graph.num_vertices,
        runtime_seconds=time.perf_counter() - started,
        iterations=len(anchors),
    )
    return AnchoredKCoreResult(
        algorithm="Exact-k1",
        k=1,
        budget=budget,
        anchors=anchors,
        followers=frozenset(),
        anchored_core_size=len(core | set(anchors)),
        stats=stats,
    )


# ---------------------------------------------------------------------------
# k = 2
# ---------------------------------------------------------------------------
class _TreePlan:
    """Per-tree result of the Steiner-coverage greedy.

    ``anchor_sequence[i]`` is the ``(i+1)``-th anchor chosen in this tree and
    ``net_gain(j)`` the number of followers obtained by using its first ``j``
    anchors (coverage of the spanned Steiner tree minus the anchors).
    """

    def __init__(
        self,
        anchor_sequence: List[Vertex],
        coverage_gains: List[int],
        base_coverage: int,
    ) -> None:
        self.anchor_sequence = anchor_sequence
        self.coverage_gains = coverage_gains
        self.base_coverage = base_coverage

    def max_anchors(self) -> int:
        return len(self.anchor_sequence)

    def net_gain(self, num_anchors: int) -> int:
        if num_anchors <= 0:
            return 0
        num_anchors = min(num_anchors, len(self.anchor_sequence))
        coverage = self.base_coverage + sum(self.coverage_gains[:num_anchors])
        return coverage - num_anchors


def _tree_components(graph: Graph, forest_vertices: Set[Vertex]) -> List[Set[Vertex]]:
    """Connected components of the subgraph induced on ``forest_vertices``."""
    components: List[Set[Vertex]] = []
    unseen = set(forest_vertices)
    while unseen:
        root = next(iter(unseen))
        component = {root}
        frontier = [root]
        unseen.discard(root)
        while frontier:
            current = frontier.pop()
            for neighbour in graph.neighbors(current):
                if neighbour in unseen:
                    unseen.discard(neighbour)
                    component.add(neighbour)
                    frontier.append(neighbour)
        components.append(component)
    return components


def _bfs_farthest(
    graph: Graph,
    tree: Set[Vertex],
    sources: Sequence[Vertex],
) -> Tuple[Optional[Vertex], int, Dict[Vertex, Vertex]]:
    """Multi-source BFS inside ``tree``; return the farthest vertex, its distance and parents."""
    distance: Dict[Vertex, int] = {source: 0 for source in sources}
    parent: Dict[Vertex, Vertex] = {}
    queue = deque(sources)
    farthest: Optional[Vertex] = None
    farthest_distance = -1
    while queue:
        current = queue.popleft()
        current_distance = distance[current]
        if current_distance > farthest_distance or (
            current_distance == farthest_distance
            and farthest is not None
            and tie_break_key(current) < tie_break_key(farthest)
        ):
            farthest, farthest_distance = current, current_distance
        for neighbour in graph.neighbors(current):
            if neighbour in tree and neighbour not in distance:
                distance[neighbour] = current_distance + 1
                parent[neighbour] = current
                queue.append(neighbour)
    return farthest, max(farthest_distance, 0), parent


def _plan_tree(graph: Graph, tree: Set[Vertex], two_core: Set[Vertex], budget: int) -> _TreePlan:
    """Run the farthest-point Steiner-coverage greedy inside one forest tree."""
    attachment_points = sorted(
        (vertex for vertex in tree if any(n in two_core for n in graph.neighbors(vertex))),
        key=tie_break_key,
    )

    covered: Set[Vertex] = set()
    base_coverage = 0
    if attachment_points:
        # Theory says there is at most one attachment point per tree (a second
        # one would close a cycle through the 2-core); handle a hypothetical
        # multi-attachment tree defensively by seeding the covered region with
        # the paths connecting all attachment points.
        covered.add(attachment_points[0])
        if len(attachment_points) > 1:
            parents = _bfs_parents(graph, tree, [attachment_points[0]])
            for extra in attachment_points[1:]:
                walker: Optional[Vertex] = extra
                while walker is not None and walker not in covered:
                    covered.add(walker)
                    walker = parents.get(walker)
        base_coverage = len(covered)

    anchor_sequence: List[Vertex] = []
    coverage_gains: List[int] = []
    limit = min(budget, len(tree)) if budget else 0

    if not covered and limit > 0:
        # No free attachment point: seed the greedy at a diameter endpoint so
        # the farthest-point sequence is optimal for every prefix.
        start = sorted(tree, key=tie_break_key)[0]
        endpoint, _, _ = _bfs_farthest(graph, tree, [start])
        anchor_sequence.append(endpoint)
        coverage_gains.append(1)
        covered.add(endpoint)

    while len(anchor_sequence) < limit:
        farthest, distance, _ = _bfs_farthest(graph, tree, sorted(covered, key=tie_break_key))
        if farthest is None or distance == 0:
            break
        parents = _bfs_parents(graph, tree, sorted(covered, key=tie_break_key))
        path: List[Vertex] = []
        walker: Optional[Vertex] = farthest
        while walker is not None and walker not in covered:
            path.append(walker)
            walker = parents.get(walker)
        anchor_sequence.append(farthest)
        coverage_gains.append(len(path))
        covered.update(path)

    return _TreePlan(anchor_sequence, coverage_gains, base_coverage)


def _bfs_parents(graph: Graph, tree: Set[Vertex], sources: Sequence[Vertex]) -> Dict[Vertex, Vertex]:
    """Parent pointers of a multi-source BFS inside ``tree``."""
    parent: Dict[Vertex, Vertex] = {}
    visited: Set[Vertex] = set(sources)
    queue = deque(sources)
    while queue:
        current = queue.popleft()
        for neighbour in graph.neighbors(current):
            if neighbour in tree and neighbour not in visited:
                visited.add(neighbour)
                parent[neighbour] = current
                queue.append(neighbour)
    return parent


def solve_k2(graph: Graph, budget: int) -> AnchoredKCoreResult:
    """Exact anchored 2-core selection via Steiner coverage on the non-core forest."""
    require_int("budget", budget, 0)
    started = time.perf_counter()
    two_core = k_core(graph, 2)
    forest_vertices = set(graph.vertices()) - two_core
    trees = _tree_components(graph, forest_vertices)
    plans = [_plan_tree(graph, tree, two_core, budget) for tree in trees]

    # Knapsack across trees: dp[b] = (best follower count, per-tree allocation).
    dp: List[Tuple[int, List[int]]] = [(0, [0] * len(plans)) for _ in range(budget + 1)]
    for index, plan in enumerate(plans):
        updated_dp: List[Tuple[int, List[int]]] = [(value, list(alloc)) for value, alloc in dp]
        for spend in range(budget + 1):
            for within_tree in range(1, min(plan.max_anchors(), spend) + 1):
                candidate_value = dp[spend - within_tree][0] + plan.net_gain(within_tree)
                if candidate_value > updated_dp[spend][0]:
                    allocation = list(dp[spend - within_tree][1])
                    allocation[index] = within_tree
                    updated_dp[spend] = (candidate_value, allocation)
        dp = updated_dp

    best_value, best_allocation = max(dp, key=lambda entry: entry[0])
    anchors: List[Vertex] = []
    for plan, allocation in zip(plans, best_allocation):
        anchors.extend(plan.anchor_sequence[:allocation])
    anchors = anchors[:budget]

    followers = compute_followers(graph, 2, anchors, k_core_vertices=two_core)
    stats = SolverStats(
        candidates_evaluated=len(forest_vertices),
        visited_vertices=graph.num_vertices + sum(len(tree) for tree in trees),
        runtime_seconds=time.perf_counter() - started,
        iterations=len(anchors),
    )
    return AnchoredKCoreResult(
        algorithm="Exact-k2",
        k=2,
        budget=budget,
        anchors=tuple(anchors),
        followers=frozenset(followers),
        anchored_core_size=len(two_core | set(anchors) | followers),
        stats=stats,
    )


class ExactSmallK:
    """Dispatcher exposing the polynomial exact solvers behind the solver interface.

    Raises :class:`ParameterError` for ``k >= 3``, where the problem is NP-hard
    (Theorem 1) and the heuristics or brute force must be used instead.
    """

    name = "Exact-small-k"

    def __init__(self, graph: Graph, k: int, budget: int) -> None:
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        if k not in (1, 2):
            raise ParameterError(
                "the exact polynomial solvers only exist for k = 1 and k = 2 "
                "(the anchored k-core problem is NP-hard for k >= 3)"
            )
        self._graph = graph
        self._k = k
        self._budget = budget

    def select(self) -> AnchoredKCoreResult:
        """Return an optimal anchor set for the configured instance."""
        if self._k == 1:
            return solve_k1(self._graph, self._budget)
        return solve_k2(self._graph, self._budget)
