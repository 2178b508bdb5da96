"""Exact anchored k-core selection by exhaustive enumeration (Section 6.4).

The paper's case study compares the heuristics against a brute-force solver
that enumerates every anchor set of size ``l`` — time complexity
``O(C(|V|, l) * |E|)``, feasible only for tiny budgets on small graphs.  The
implementation below restricts the enumeration universe to vertices outside
the k-core, which preserves optimality: a vertex already in the k-core is a
member of ``C_k(S)`` for every anchor set ``S`` and contributes its support
whether anchored or not, so anchoring it never helps.  A smaller universe
(e.g. the Theorem-3 candidates) can be supplied explicitly for speed at the
cost of exactness for multi-anchor interactions through low-core vertices.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, List, Optional, Set, Tuple

from repro.anchored.followers import compute_followers
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.cores.decomposition import k_core_cascade
from repro.errors import (
    ParameterError,
    VertexNotFoundError,
    distinct_vertices,
    require_int,
)
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


class BruteForceAnchoredKCore:
    """Exact anchored k-core selection by enumerating candidate anchor sets.

    Parameters
    ----------
    graph, k, budget:
        Problem instance, as for the heuristics.
    max_combinations:
        Safety valve, a positive integer: if the number of anchor-set
        combinations exceeds this bound a :class:`ParameterError` is raised
        instead of running for hours.
        Raise it explicitly for larger case studies.
    candidate_universe:
        Optional explicit universe to enumerate, an iterable of vertices of
        ``graph`` (checked at construction); defaults to every vertex
        outside the k-core (exact).
    """

    name = "Brute-force"

    def __init__(
        self,
        graph: Graph,
        k: int,
        budget: int,
        max_combinations: int = 2_000_000,
        candidate_universe: Optional[Iterable[Vertex]] = None,
    ) -> None:
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        require_int("max_combinations", max_combinations, 1)
        self._graph = graph
        self._k = k
        self._budget = budget
        self._max_combinations = max_combinations
        self._universe: Optional[List[Vertex]] = None
        if candidate_universe is not None:
            universe = distinct_vertices("candidate_universe", candidate_universe)
            for vertex in universe:
                if not graph.has_vertex(vertex):
                    raise VertexNotFoundError(vertex)
            self._universe = sorted(universe, key=tie_break_key)

    @staticmethod
    def _num_combinations(universe_size: int, budget: int) -> int:
        from math import comb

        budget = min(budget, universe_size)
        return sum(comb(universe_size, size) for size in range(budget + 1))

    def select(self) -> AnchoredKCoreResult:
        """Enumerate anchor sets and return an optimal one.

        Every anchor-set size from 0 up to the budget is enumerated: turning a
        follower into an extra anchor can *reduce* the follower count even
        though it never shrinks the anchored k-core, so restricting the search
        to exactly ``budget`` anchors would not maximise followers.
        """
        started = time.perf_counter()
        plain_core = k_core_cascade(self._graph, self._k)
        universe = self._universe
        if universe is None:
            universe = sorted(
                (vertex for vertex in self._graph.vertices() if vertex not in plain_core),
                key=tie_break_key,
            )
        budget = min(self._budget, len(universe))
        total = self._num_combinations(len(universe), budget)
        if total > self._max_combinations:
            raise ParameterError(
                f"brute force would enumerate {total} anchor sets "
                f"(> max_combinations={self._max_combinations}); "
                "reduce the budget, shrink the graph, or raise the bound explicitly"
            )

        best_anchors: Tuple[Vertex, ...] = ()
        best_followers: Set[Vertex] = set()
        stats = SolverStats()
        combos: Iterable[Tuple[Vertex, ...]] = (
            anchors
            for size in range(budget + 1)
            for anchors in combinations(universe, size)
        )
        for anchors in combos:
            followers = compute_followers(self._graph, self._k, anchors, plain_core)
            stats.candidates_evaluated += 1
            stats.visited_vertices += self._graph.num_vertices
            if len(followers) > len(best_followers):
                best_anchors, best_followers = anchors, followers

        stats.runtime_seconds = time.perf_counter() - started
        stats.iterations = len(best_anchors)
        anchored_size = len(plain_core | set(best_anchors) | best_followers)
        return AnchoredKCoreResult(
            algorithm=self.name,
            k=self._k,
            budget=self._budget,
            anchors=best_anchors,
            followers=frozenset(best_followers),
            anchored_core_size=anchored_size,
            stats=stats,
        )
