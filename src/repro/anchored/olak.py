"""OLAK baseline: per-snapshot anchored k-core selection without AVT pruning.

OLAK (Zhang et al., PVLDB 2017) is the first practical algorithm for the
anchored k-core problem on static graphs.  The paper adapts it as a baseline by
re-running it independently at every snapshot.  Relative to the paper's
optimised Greedy, this adaptation

* scans the *unpruned* candidate universe (every un-anchored vertex outside the
  anchored k-core), and
* evaluates each candidate with a cascade over the whole ``(k-1)``-shell rather
  than only the region reachable from the candidate,

so it produces the same anchor quality while visiting many more vertices —
which is exactly how it behaves in the paper's Figures 3-8.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Set, Union

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.errors import ParameterError, distinct_vertices, require_bool, require_int
from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


class OLAKAnchoredKCore:
    """Per-snapshot OLAK adaptation used as a baseline in the evaluation."""

    name = "OLAK"

    def __init__(
        self,
        graph: Graph,
        k: int,
        budget: int,
        stop_on_zero_gain: bool = True,
        initial_anchors: Iterable[Vertex] = (),
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        require_bool("stop_on_zero_gain", stop_on_zero_gain)
        self._graph = graph
        self._k = k
        self._budget = budget
        self._stop_on_zero_gain = stop_on_zero_gain
        # Distinct anchors, first occurrence kept: each one spends budget once.
        self._initial_anchors = distinct_vertices("initial_anchors", initial_anchors)
        if len(self._initial_anchors) > budget:
            raise ParameterError("initial_anchors must not outnumber the budget")
        self._backend = get_backend(backend)

    def select(self) -> AnchoredKCoreResult:
        """Run the OLAK-style selection and return the resulting anchor set."""
        started = time.perf_counter()
        index = AnchoredCoreIndex(
            self._graph, self._k, anchors=self._initial_anchors, backend=self._backend
        )
        chosen: List[Vertex] = list(self._initial_anchors)
        stats = SolverStats()

        while len(chosen) < self._budget:
            candidates = index.all_non_core_vertices()
            best_vertex: Optional[Vertex] = None
            best_gain: Set[Vertex] = set()
            for candidate in sorted(candidates, key=tie_break_key):
                gained = index.marginal_followers(candidate, full_shell=True)
                if len(gained) > len(best_gain):
                    best_vertex, best_gain = candidate, gained
            if best_vertex is None or (self._stop_on_zero_gain and not best_gain):
                break
            index.commit_anchor(best_vertex)
            chosen.append(best_vertex)
            stats.iterations += 1

        stats.candidates_evaluated = index.candidates_evaluated
        stats.visited_vertices = index.visited_vertices
        stats.runtime_seconds = time.perf_counter() - started
        return AnchoredKCoreResult(
            algorithm=self.name,
            k=self._k,
            budget=self._budget,
            anchors=tuple(chosen),
            followers=frozenset(index.followers()),
            anchored_core_size=index.anchored_core_size(),
            stats=stats,
        )
