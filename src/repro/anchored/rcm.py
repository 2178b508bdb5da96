"""RCM baseline: Residual Core Maximization adapted to per-snapshot selection.

RCM (Laishram et al., SDM 2020) is the state-of-the-art anchored k-core
heuristic on static graphs.  Instead of exhaustively evaluating every
candidate's followers at every step, it scores candidates cheaply using the
*residual degree* structure of the ``(k-1)``-shell and only verifies the
highest-scoring candidates:

* the **residual degree** of a shell vertex ``v`` is ``k`` minus the number of
  supporters ``v`` already has in the anchored k-core — how much extra support
  it still needs;
* the **anchor score** of a candidate ``x`` aggregates, over the shell
  component(s) adjacent to ``x``, how many residual-degree-deficient vertices a
  single unit of support from ``x`` could unlock (vertices with residual
  degree 1 count fully, others proportionally).

The adaptation used here mirrors the paper's experimental setup: RCM is re-run
from scratch at every snapshot (it has no incremental machinery), its follower
quality is close to Greedy/OLAK, and its cost sits between them because it
verifies only a shortlist of candidates per iteration.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Set, Union

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.errors import ParameterError, distinct_vertices, require_bool, require_int
from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


class RCMAnchoredKCore:
    """Residual Core Maximization, re-run per snapshot as in the paper's baseline."""

    name = "RCM"

    def __init__(
        self,
        graph: Graph,
        k: int,
        budget: int,
        shortlist_size: int = 20,
        stop_on_zero_gain: bool = True,
        initial_anchors: Iterable[Vertex] = (),
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        require_int("shortlist_size", shortlist_size, 1)
        require_bool("stop_on_zero_gain", stop_on_zero_gain)
        self._graph = graph
        self._k = k
        self._budget = budget
        self._shortlist_size = shortlist_size
        self._stop_on_zero_gain = stop_on_zero_gain
        # Distinct anchors, first occurrence kept: each one spends budget once.
        self._initial_anchors = distinct_vertices("initial_anchors", initial_anchors)
        if len(self._initial_anchors) > budget:
            raise ParameterError("initial_anchors must not outnumber the budget")
        self._backend = get_backend(backend)

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _residual_degrees(self, index: AnchoredCoreIndex) -> Dict[Vertex, int]:
        """Residual degree of every shell vertex under the current anchor set."""
        core = index.core_numbers()
        residual: Dict[Vertex, int] = {}
        for vertex in index.shell():
            supporters = sum(
                1 for neighbour in self._graph.neighbors(vertex) if core[neighbour] >= self._k
            )
            residual[vertex] = max(self._k - supporters, 0)
        return residual

    def _anchor_scores(
        self, index: AnchoredCoreIndex, residual: Dict[Vertex, int]
    ) -> Dict[Vertex, float]:
        """Cheap anchor score for every candidate: expected unlocking power."""
        scores: Dict[Vertex, float] = {}
        core = index.core_numbers()
        for candidate in index.all_non_core_vertices():
            score = 0.0
            touched = 0
            for neighbour in self._graph.neighbors(candidate):
                need = residual.get(neighbour)
                if need is None or core[neighbour] >= self._k:
                    continue
                touched += 1
                if need <= 1:
                    score += 1.0
                else:
                    score += 1.0 / need
            if touched:
                scores[candidate] = score
        return scores

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self) -> AnchoredKCoreResult:
        """Run the RCM-style selection and return the resulting anchor set."""
        started = time.perf_counter()
        index = AnchoredCoreIndex(
            self._graph, self._k, anchors=self._initial_anchors, backend=self._backend
        )
        chosen: List[Vertex] = list(self._initial_anchors)
        stats = SolverStats()

        while len(chosen) < self._budget:
            residual = self._residual_degrees(index)
            scores = self._anchor_scores(index, residual)
            if not scores:
                break
            shortlist = sorted(
                scores,
                key=lambda vertex: (-scores[vertex], tie_break_key(vertex)),
            )[: self._shortlist_size]
            best_vertex: Optional[Vertex] = None
            best_gain: Set[Vertex] = set()
            for candidate in shortlist:
                gained = index.marginal_followers(candidate)
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
