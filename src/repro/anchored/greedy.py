"""The paper's optimised Greedy algorithm for the anchored k-core problem.

Algorithm 2 selects ``l`` anchors one at a time, each time committing the
candidate with the largest follower set.  The two optimisations of Section 4
are applied: candidate anchors are pruned with Theorem 3 (only vertices with a
later-ordered neighbour in the ``(k-1)``-shell can gain followers) and the
follower computation is the fast shell-local cascade instead of a full core
decomposition per candidate.

On top of the paper's algorithm, the selection avoids recomputation *within*
a snapshot without changing a single result:

* **Capped anchor commits.**  Committing the round's winner goes through
  :meth:`~repro.anchored.anchored_core.AnchoredCoreIndex.commit_anchor`, the
  kernels' delta-refresh path.  It keeps only what the next round reads at
  ``k``: single-anchor riser cascades at the levels up to ``k``, and a
  re-order of the ``(k-1)``-shell components the commit reached (the numpy
  kernel; the dict kernel re-orders the whole shell).  Theorem-3 pruning
  reads the order only within a shell component.  It also reports the
  exact *touched set* of vertices whose core number changed.
* **Memoized marginal gains.**  A candidate's evaluation reads only the core
  numbers of its explored shell-local region, the candidate, and their
  neighbours.  Each evaluation is cached together with that region; after a
  commit only the candidates whose cached scope intersects the touched set
  (expanded by one hop — a changed vertex can affect evaluations that read
  it from a neighbouring region vertex) are invalidated and re-run.  Valid
  cached gains are *exact*, so each round re-runs O(invalidated) cascades
  instead of O(candidates) — while anchors, followers and the instrumentation
  counters stay bit-identical to evaluating every candidate every round
  (cached evaluations replay their recorded visit counts).  The tests'
  exact referee is a reference Greedy built from full anchored peels.

A CELF-style lazy variant — evaluating stale candidates in descending
cached-gain order and stopping once a fresh gain dominates every remaining
cached value — is deliberately *not* used: it is only exact when cached
gains upper-bound fresh gains, and anchored k-core marginal gains are not
submodular (a commit can connect a candidate's region to previously
unreachable shell components, so a stale candidate's gain may *grow*).
Skipping stale evaluations would therefore risk wrong anchors and would
change ``candidates_evaluated``/``visited_vertices``, breaking the
bit-identical contract.  The memoization above already removes the same
cascades soundly: valid cached gains are exact, so only invalidated
candidates ever re-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Union

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.errors import ParameterError, require_bool, require_int
from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.graph.static import Graph, Vertex
from repro.obs import tracer
from repro.ordering import tie_break_key


@dataclass(frozen=True)
class _CachedGain:
    """One memoized candidate evaluation.

    ``scope`` is the evaluation's read region plus the candidate itself; the
    cached result is exact as long as no committed anchor touches the scope
    or its one-hop neighbourhood.  ``visited`` is the raw cascade count the
    evaluation reported, replayed into the instrumentation on every reuse so
    the paper's counters match a fresh evaluation bit for bit.
    """

    followers: FrozenSet[Vertex]
    visited: int
    scope: FrozenSet[Vertex]


class GreedyAnchoredKCore:
    """Greedy anchored k-core selection (the paper's *Greedy*).

    Parameters
    ----------
    graph:
        The graph snapshot to anchor.
    k:
        Degree constraint of the k-core engagement model.
    budget:
        Maximum number of anchors to select (the paper's ``l``).
    order_pruning:
        Apply Theorem-3 candidate pruning (default).  Disabling it only makes
        the algorithm slower; results are unchanged.
    stop_on_zero_gain:
        Stop early once no candidate gains any followers (default); the paper's
        formulation allows fewer than ``l`` anchors in that situation because
        additional anchors cannot enlarge the anchored k-core.
    backend:
        Execution backend for the core index (``"auto"`` / ``"dict"`` /
        ``"numpy"``, see :mod:`repro.backends`); results are identical,
        only the speed differs.
    """

    name = "Greedy"

    def __init__(
        self,
        graph: Graph,
        k: int,
        budget: int,
        order_pruning: bool = True,
        stop_on_zero_gain: bool = True,
        initial_anchors: Iterable[Vertex] = (),
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        require_bool("order_pruning", order_pruning)
        require_bool("stop_on_zero_gain", stop_on_zero_gain)
        self._graph = graph
        self._k = k
        self._budget = budget
        self._order_pruning = order_pruning
        self._stop_on_zero_gain = stop_on_zero_gain
        # Distinct anchors, first occurrence kept: each one spends budget once.
        self._initial_anchors = tuple(dict.fromkeys(initial_anchors))
        if len(self._initial_anchors) > budget:
            raise ParameterError("initial_anchors must not outnumber the budget")
        # Resolved here, not in select(): a bad name fails at construction,
        # and the lazy backend import stays out of the solve's timing.
        self._backend = get_backend(backend)

    def select(self) -> AnchoredKCoreResult:
        """Run the greedy selection and return the resulting anchor set."""
        started = time.perf_counter()
        with tracer.span(
            "solver.select",
            algorithm=self.name,
            k=self._k,
            budget=self._budget,
        ) as select_span:
            index = AnchoredCoreIndex(
                self._graph, self._k, anchors=self._initial_anchors, backend=self._backend
            )
            chosen: List[Vertex] = list(self._initial_anchors)
            stats = SolverStats()
            cache: Dict[Vertex, _CachedGain] = {}

            while len(chosen) < self._budget:
                round_number = stats.iterations + 1
                candidates = index.candidate_anchors(order_pruning=self._order_pruning)
                best_vertex: Optional[Vertex] = None
                best_gain: FrozenSet[Vertex] = frozenset()
                with tracer.span(
                    "greedy.evaluate", round=round_number, candidates=len(candidates)
                ) as eval_span:
                    recomputed_before = stats.candidates_recomputed
                    for candidate in sorted(candidates, key=tie_break_key):
                        entry = cache.get(candidate)
                        if entry is not None:
                            # Valid cached gain: exact by the invalidation argument
                            # below, so the cascade is skipped and its recorded
                            # visit count replayed into the instrumentation.
                            index.record_cached_evaluation(entry.visited)
                            stats.cache_hits += 1
                            gained = entry.followers
                        else:
                            raw, visited, region = index.evaluate_candidate(candidate)
                            stats.candidates_recomputed += 1
                            gained = frozenset(raw)
                            cache[candidate] = _CachedGain(
                                followers=gained,
                                visited=visited,
                                scope=region | {candidate},
                            )
                        if len(gained) > len(best_gain):
                            best_vertex, best_gain = candidate, gained
                    eval_span.set(
                        recomputed=stats.candidates_recomputed - recomputed_before
                    )
                if best_vertex is None or (self._stop_on_zero_gain and not best_gain):
                    break
                commit_started = time.perf_counter()
                with tracer.span(
                    "greedy.commit", round=round_number, gain=len(best_gain)
                ) as commit_span:
                    touched = index.commit_anchor(best_vertex)
                    self._invalidate(cache, touched)
                    commit_span.set(touched=len(touched))
                stats.commit_seconds.append(time.perf_counter() - commit_started)
                chosen.append(best_vertex)
                stats.iterations += 1
            followers = frozenset(index.followers())
            select_span.set(anchors=len(chosen), followers=len(followers))

        stats.candidates_evaluated = index.candidates_evaluated
        stats.visited_vertices = index.visited_vertices
        stats.runtime_seconds = time.perf_counter() - started
        return AnchoredKCoreResult(
            algorithm=self.name,
            k=self._k,
            budget=self._budget,
            anchors=tuple(chosen),
            followers=followers,
            anchored_core_size=index.anchored_core_size(),
            stats=stats,
        )

    def _invalidate(
        self, cache: Dict[Vertex, _CachedGain], touched: FrozenSet[Vertex]
    ) -> None:
        """Drop every cached gain the last commit may have changed.

        An evaluation is a deterministic function of the core numbers of its
        scope (region + candidate) and of the scope's neighbours.  A commit
        that changed core numbers only inside ``touched`` can therefore
        affect a cached entry only if ``touched`` (expanded by one hop)
        intersects the entry's scope — including the case where the region
        itself would now grow or shrink, since any vertex joining or leaving
        the region is itself touched or adjacent to it.
        """
        if not cache or not touched:
            return
        invalid_zone: Set[Vertex] = set(touched)
        neighbors = self._graph.neighbors
        for vertex in touched:
            invalid_zone.update(neighbors(vertex))
        stale = [
            candidate
            for candidate, entry in cache.items()
            if not entry.scope.isdisjoint(invalid_zone)
        ]
        for candidate in stale:
            del cache[candidate]
