"""IncAVT: the incremental Anchored Vertex Tracking algorithm (Section 5).

IncAVT exploits the smoothness of the network's evolution.  It solves the
first snapshot with the Greedy algorithm, then for every subsequent snapshot:

1. maintains the core numbers incrementally while applying the edge delta
   (``E+`` then ``E-``), collecting the affected vertex pools ``VI`` and
   ``VR`` — the insertion- and deletion-affected vertices whose core number is
   ``k - 1`` afterwards (Algorithms 4-5, realised by
   :class:`repro.cores.maintenance.CoreMaintainer`);
2. carries the previous anchor set forward (``S_t := S_{t-1}``); and
3. probes only candidates drawn from ``VI ∪ VR ∪ nbr(VI ∪ VR)`` outside the
   k-core (Algorithm 6, line 12), swapping an existing anchor for a candidate
   whenever that increases the follower count.  The swap examination is
   limited to the anchors whose neighbourhood the delta actually touched and
   to anchors that the evolution pushed inside the k-core (their budget is
   wasted) — the remaining anchors sit in unchanged regions, where a swap
   cannot help, which is precisely the smoothness argument of Section 5.  If
   the carried-forward set is smaller than the budget, the spare budget is
   filled greedily from the same restricted pool.

The swap/fill pass builds no anchored core index.  It takes one copy of the
maintained core numbers and raises it to the anchored core numbers of each
anchor set it evaluates with the per-level riser cascades of
:func:`repro.anchored.followers.commit_anchor_cores`, capped at ``k``; the
undo list each commit returns restores the copy between swap targets.  It
reads the maintained core numbers through :meth:`CoreMaintainer.core` to find
the swap targets first, and copies them only when a swap or a fill will run;
most snapshots of a smooth sequence need neither.

The reported followers come from
:func:`~repro.anchored.followers.compute_followers` given the maintainer's
live view of the plain k-core, which peels only the region grown from the
anchors outside it.  The view answers membership and size in O(1), so a
snapshot costs its core maintenance and the work around its anchors, not a
peel or a scan of the whole graph.

Because the candidate pool is restricted to the region the delta actually
touched, IncAVT visits far fewer vertices per snapshot than re-running any of
the static algorithms — the effect the paper's Figures 3-8 measure.
"""

from __future__ import annotations

import numbers
import time
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.anchored.followers import (
    commit_anchor_cores,
    compute_followers,
    marginal_followers,
)
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.avt.problem import AVTProblem, AVTResult, SnapshotResult
from repro.cores.decomposition import ANCHOR_CORE
from repro.cores.maintenance import CoreMaintainer
from repro.errors import ParameterError, require_int
from repro.backends import BACKEND_AUTO, ExecutionBackend
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key


class IncAVTTracker:
    """Incremental AVT tracker (the paper's IncAVT, Algorithm 6).

    Parameters
    ----------
    fill_budget:
        When the carried-forward anchor set has spare budget, greedily add
        candidates from the restricted pool (default).  Disable to follow the
        swap-only pseudocode literally.
    neighbourhood_hops:
        How far around the affected vertices the candidate pool extends
        (non-negative); the paper uses the direct neighbourhood (1 hop).
    swap_all_anchors:
        Examine a replacement for *every* carried-forward anchor at every
        snapshot (the literal Algorithm 6 loop) instead of only the anchors
        the delta touched.  Slower, occasionally slightly better anchors.
    restart_churn_ratio:
        When a single delta changes more than this fraction of the snapshot's
        edges, the smoothness assumption behind the incremental update no
        longer holds, so the snapshot is re-solved from scratch with the
        Greedy algorithm instead (the incremental core index is still
        maintained).  The paper observes the same effect: K-order maintenance
        "downgrades when the percentage of updated edges is high" (Section
        6.2.2), which is visible as the IncAVT time jump at eu-core T=21.
        Must be non-negative; ``0.0`` re-solves every snapshot that changed,
        and ``None`` disables restarts.
    backend:
        Execution backend (``"auto"`` / ``"dict"`` / ``"numpy"``, see
        :mod:`repro.backends`) used for the Greedy first-snapshot/restart
        solves.  Core maintenance runs the same integer-id kernel on every
        backend (:mod:`repro.cores.maintenance`).
    """

    name = "IncAVT"

    def __init__(
        self,
        fill_budget: bool = True,
        neighbourhood_hops: int = 1,
        swap_all_anchors: bool = False,
        restart_churn_ratio: Optional[float] = 0.15,
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        require_int("neighbourhood_hops", neighbourhood_hops, 0)
        if restart_churn_ratio is not None and (
            isinstance(restart_churn_ratio, bool)
            or not isinstance(restart_churn_ratio, numbers.Real)
            or restart_churn_ratio < 0
        ):
            raise ParameterError(
                f"restart_churn_ratio must be a non-negative number or None, "
                f"not {restart_churn_ratio!r}"
            )
        self._fill_budget = fill_budget
        self._neighbourhood_hops = neighbourhood_hops
        self._swap_all_anchors = swap_all_anchors
        self._restart_churn_ratio = restart_churn_ratio
        self._backend = backend

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def track(self, problem: AVTProblem, max_snapshots: Optional[int] = None) -> AVTResult:
        """Solve the AVT problem incrementally across all snapshots."""
        if max_snapshots is not None:
            require_int("max_snapshots", max_snapshots, 0)
        result = AVTResult(
            algorithm=self.name, k=problem.k, budget=problem.budget, problem_name=problem.name
        )
        limit = (
            problem.num_snapshots
            if max_snapshots is None
            else min(max_snapshots, problem.num_snapshots)
        )
        if limit == 0:
            return result

        # Snapshot 1: solved from scratch with the Greedy algorithm (Algorithm 6, line 2).
        maintainer = CoreMaintainer(problem.evolving_graph.base, copy_graph=True)
        first_graph = maintainer.graph
        greedy = GreedyAnchoredKCore(
            first_graph, problem.k, problem.budget, backend=self._backend
        )
        first = greedy.select()
        result.append(
            SnapshotResult(
                timestamp=0,
                result=AnchoredKCoreResult(
                    algorithm=self.name,
                    k=first.k,
                    budget=first.budget,
                    anchors=first.anchors,
                    followers=first.followers,
                    anchored_core_size=first.anchored_core_size,
                    stats=first.stats,
                ),
                num_vertices=first_graph.num_vertices,
                num_edges=first_graph.num_edges,
            )
        )
        anchors: List[Vertex] = list(first.anchors)

        for timestamp in range(1, limit):
            delta = problem.evolving_graph.deltas[timestamp - 1]
            started = time.perf_counter()
            churn_ratio = delta.num_changes / max(maintainer.graph.num_edges, 1)
            if (
                self._restart_churn_ratio is not None
                and churn_ratio > self._restart_churn_ratio
            ):
                # Smoothness violated: per-edge maintenance and anchor swapping
                # would cost more than starting over, so apply the delta in
                # bulk, refresh the core index, and re-solve with Greedy.
                delta.apply(maintainer.graph)
                maintainer.refresh_from_graph()
                restart = GreedyAnchoredKCore(
                    maintainer.graph, problem.k, problem.budget, backend=self._backend
                ).select()
                anchors = list(restart.anchors)
                stats = restart.stats
                maintenance_visited = 0
            else:
                effect = maintainer.apply_delta(delta, k=problem.k)
                anchors, stats = self._update_anchor_set(
                    maintainer, problem.k, problem.budget, anchors, effect.affected
                )
                maintenance_visited = effect.visited
            stats.maintenance_visited += maintenance_visited

            # Reporting for this snapshot: the plain k-core is the maintainer's
            # live view, and the followers come from a cascade over the region
            # around the anchors outside it — no peel or scan of the whole
            # graph, which is part of IncAVT's win.
            snapshot_graph = maintainer.graph
            plain_core = maintainer.k_core_vertices(problem.k)
            followers = compute_followers(
                snapshot_graph, problem.k, anchors, k_core_vertices=plain_core
            )
            stats.runtime_seconds = time.perf_counter() - started
            # Followers lie outside K and S: |K ∪ S ∪ F| = |K| + |S \ K| + |F|.
            anchored_size = len(plain_core) + len(set(anchors) - plain_core) + len(followers)
            result.append(
                SnapshotResult(
                    timestamp=timestamp,
                    result=AnchoredKCoreResult(
                        algorithm=self.name,
                        k=problem.k,
                        budget=problem.budget,
                        anchors=tuple(anchors),
                        followers=frozenset(followers),
                        anchored_core_size=anchored_size,
                        stats=stats,
                    ),
                    num_vertices=snapshot_graph.num_vertices,
                    num_edges=snapshot_graph.num_edges,
                    edges_inserted=len(delta.inserted),
                    edges_removed=len(delta.removed),
                )
            )
        return result

    def refresh_anchors(
        self,
        maintainer: CoreMaintainer,
        k: int,
        budget: int,
        anchors: Iterable[Vertex],
        affected: Set[Vertex],
    ) -> Tuple[List[Vertex], SolverStats]:
        """Warm-update a carried-forward anchor set after external maintenance.

        This is the engine-facing entry point: a long-lived caller (such as
        :class:`repro.engine.StreamingAVTEngine`) that owns its own
        :class:`CoreMaintainer` applies deltas itself, accumulates the touched
        vertex set, and then asks for the Algorithm-6 swap/fill pass over that
        restricted pool instead of re-solving from scratch.  Returns the
        refreshed anchor list and the solver stats of the pass.
        """
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        # Distinct anchors, first occurrence kept, then cut to the budget.
        carried = list(dict.fromkeys(anchors))[:budget]
        return self._update_anchor_set(maintainer, k, budget, carried, set(affected))

    # ------------------------------------------------------------------
    # Anchor-set update (Algorithm 6, lines 9-16)
    # ------------------------------------------------------------------
    def _affected_region(self, graph: Graph, affected: Set[Vertex]) -> Set[Vertex]:
        """Expand the affected vertices by the configured neighbourhood radius."""
        region: Set[Vertex] = {vertex for vertex in affected if graph.has_vertex(vertex)}
        frontier = set(region)
        for _ in range(self._neighbourhood_hops):
            next_frontier: Set[Vertex] = set()
            for vertex in frontier:
                next_frontier.update(graph.neighbors(vertex))
            next_frontier -= region
            region |= next_frontier
            frontier = next_frontier
        return region

    def _candidate_pool(
        self,
        graph: Graph,
        k: int,
        core: Dict[Vertex, int],
        region: Set[Vertex],
        exclude: Set[Vertex],
    ) -> List[Vertex]:
        """Filter the affected region down to plausible anchor candidates."""
        target = k - 1
        filtered: List[Vertex] = []
        for vertex in region:
            if vertex in exclude:
                continue
            if core.get(vertex, 0) >= k:
                continue
            # Theorem-3 relaxation: a useful anchor must touch the (k-1)-shell.
            if any(core.get(neighbour) == target for neighbour in graph.neighbors(vertex)):
                filtered.append(vertex)
        return sorted(filtered, key=tie_break_key)

    def _update_anchor_set(
        self,
        maintainer: CoreMaintainer,
        k: int,
        budget: int,
        previous_anchors: List[Vertex],
        affected: Set[Vertex],
    ) -> Tuple[List[Vertex], SolverStats]:
        """Swap / extend the carried-forward anchor set using the affected pool."""
        stats = SolverStats()
        graph = maintainer.graph
        anchors = [anchor for anchor in previous_anchors if graph.has_vertex(anchor)]
        region = self._affected_region(graph, affected)

        # Which carried-forward anchors are worth re-examining: those the delta
        # touched, plus anchors the evolution absorbed into the k-core (their
        # budget is wasted where they stand).
        if self._swap_all_anchors:
            swap_targets = list(anchors)
        else:
            swap_targets = [
                anchor
                for anchor in anchors
                if anchor in region or maintainer.core(anchor) >= k
            ]
        fill = self._fill_budget and len(anchors) < budget
        if not swap_targets and not fill:
            # Nothing to swap and no budget to spend: the O(n) copy of the
            # core numbers and the pool scan would be wasted.
            return anchors, stats

        core = maintainer.core_numbers()
        pool = self._candidate_pool(graph, k, core, region, exclude=set(anchors))
        if not pool:
            return anchors, stats

        def gain_of(candidate: Vertex) -> int:
            visit_log: List[Vertex] = []
            gained = marginal_followers(graph, k, candidate, core, visit_log)
            stats.candidates_evaluated += 1
            stats.visited_vertices += max(len(visit_log), 1)
            return len(gained)

        for old_anchor in swap_targets:
            position = anchors.index(old_anchor)
            undo: List[Tuple[Vertex, float]] = []
            for anchor in anchors:
                if anchor != old_anchor:
                    undo.extend(commit_anchor_cores(graph, anchor, core, cap=k))
            # Only committed vertices move, so the base set's followers are
            # the committed non-anchors that reached the k-core.
            base_followers = {
                vertex for vertex, _ in undo if k <= core[vertex] != ANCHOR_CORE
            }
            base_total = len(base_followers)

            def total_with(candidate: Vertex) -> int:
                already_follower = 1 if candidate in base_followers else 0
                return base_total + gain_of(candidate) - already_follower

            best_vertex = old_anchor
            best_total = total_with(old_anchor)
            for candidate in pool:
                if candidate in anchors:
                    continue
                total = total_with(candidate)
                if total > best_total:
                    best_vertex, best_total = candidate, total
            if best_vertex != old_anchor:
                anchors[position] = best_vertex
            stats.iterations += 1
            for vertex, value in reversed(undo):
                core[vertex] = value

        # Fill phase: spend any unused budget on the restricted pool (a swap
        # never changes the number of anchors).
        if fill:
            for anchor in anchors:
                commit_anchor_cores(graph, anchor, core, cap=k)
            while len(anchors) < budget:
                best_vertex: Optional[Vertex] = None
                best_gain = 0
                for candidate in pool:
                    if candidate in anchors:
                        continue
                    gain = gain_of(candidate)
                    if gain > best_gain:
                        best_vertex, best_gain = candidate, gain
                if best_vertex is None or best_gain == 0:
                    break
                anchors.append(best_vertex)
                commit_anchor_cores(graph, best_vertex, core, cap=k)
                stats.iterations += 1

        return anchors, stats
