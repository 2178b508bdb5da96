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

The swap/fill pass builds no anchored core index and runs on the maintenance
kernel's integer ids (:meth:`CoreMaintainer.id_store`).  Its affected pool
arrives as ids too: the delta's effect hands ``VI ∪ VR`` over by id
(:attr:`~repro.cores.maintenance.DeltaEffect.affected_ids`), so a snapshot
translates no touched or affected vertex, and only :meth:`refresh_anchors`,
whose caller names vertices, looks ids up.  It grows the region over the
kernel's adjacency sets and reads the k-core and the ``(k-1)``-shell from
its level sets, so finding the pool costs the region's edges, not a scan of
the graph.  Only when a swap or a fill will run does it copy the
maintained core list; it raises that copy to the anchored core numbers of
each anchor set it evaluates with the per-level riser cascades of
:func:`repro.cores.decomposition.commit_anchor_ids`, capped at ``k``, and
the undo list each commit returns restores it between swap targets.  Most
snapshots of a smooth sequence need neither.

Successive swap targets evaluate the same pool on anchor sets that differ in
one or two anchors, so most gains repeat.  Each gain is memoized with its read
scope, the way :class:`~repro.anchored.greedy.GreedyAnchoredKCore` memoizes
gains across rounds.  Moving to the next anchor set drops only the entries
whose scope a changed core number can reach; the changed ids come from the
two sets' undo lists.  A reused gain replays its recorded visit count, so the
paper's counters are the same as if every cascade ran again.

The reported followers come from
:func:`~repro.anchored.followers.compute_followers` given the maintainer's
live view of the plain k-core, which peels only the region grown from the
anchors outside it.  The view answers membership and size in O(1), so a
snapshot costs its core maintenance and the work around its anchors, not a
peel or a scan of the whole graph.

The Greedy solves of the first snapshot and of every restart run on the
maintained graph, on the backend bound to the maintainer
(:meth:`~repro.backends.ExecutionBackend.bound_to`).  On numpy their
snapshot is built in the maintainer's ids, from its adjacency sets: the
maintainer's set-up has interned the graph once, a restart writes its delta
into the maintained graph's id rows and recomputes the cores from them, and
the solve does not intern anything again.

Because the candidate pool is restricted to the region the delta actually
touched, IncAVT visits far fewer vertices per snapshot than re-running any of
the static algorithms — the effect the paper's Figures 3-8 measure.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.anchored.followers import compute_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.avt.problem import AVTProblem, AVTResult, SnapshotResult
from repro.cores.decomposition import (
    ANCHOR_CORE,
    commit_anchor_ids,
    compact_marginal_followers,
)
from repro.cores.maintenance import CoreMaintainer
from repro.errors import ParameterError, distinct_vertices, require_bool, require_int
from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.graph.static import Vertex
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
        Must be a non-negative number (NaN is refused); ``0.0`` re-solves
        every snapshot that changed, and ``None`` disables restarts.
    backend:
        Execution backend (``"auto"`` / ``"dict"`` / ``"numpy"``, see
        :mod:`repro.backends`) used for the Greedy first-snapshot/restart
        solves, resolved at construction.  Each :meth:`track` binds it to
        its maintainer (:meth:`~repro.backends.ExecutionBackend.bound_to`),
        so on numpy those solves gather their snapshot from the
        maintainer's ids.  Core maintenance runs the same integer-id kernel
        on every backend (:mod:`repro.cores.maintenance`).
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
        require_bool("fill_budget", fill_budget)
        require_int("neighbourhood_hops", neighbourhood_hops, 0)
        require_bool("swap_all_anchors", swap_all_anchors)
        if restart_churn_ratio is not None and (
            isinstance(restart_churn_ratio, bool)
            or not isinstance(restart_churn_ratio, numbers.Real)
            # NaN compares false with every ratio, so it would turn restarts
            # off silently; only None does that.
            or math.isnan(restart_churn_ratio)
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
        # Resolved here, not in track(): a bad name fails at construction,
        # and the lazy backend import stays out of the first snapshot's time.
        self._backend = get_backend(backend)

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
        maintainer = CoreMaintainer(problem.evolving_graph.base)
        first_graph = maintainer.graph
        # Greedy's snapshots of the maintained graph, here and at every
        # restart, come from the maintainer's id space.
        backend = self._backend.bound_to(maintainer)
        greedy = GreedyAnchoredKCore(first_graph, problem.k, problem.budget, backend=backend)
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
                    maintainer.graph, problem.k, problem.budget, backend=backend
                ).select()
                anchors = list(restart.anchors)
                stats = restart.stats
                maintenance_visited = 0
            else:
                effect = maintainer.apply_delta(delta, k=problem.k)
                anchors, stats = self._update_anchor_set(
                    maintainer, problem.k, problem.budget, anchors, effect.affected_ids
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
        carried = list(distinct_vertices("anchors", anchors))[:budget]
        ids = maintainer.graph.ids
        affected_ids = {ids[vertex] for vertex in affected if vertex in ids}
        return self._update_anchor_set(maintainer, k, budget, carried, affected_ids)

    # ------------------------------------------------------------------
    # Anchor-set update (Algorithm 6, lines 9-16)
    # ------------------------------------------------------------------
    def _affected_region(self, adj: Sequence[Set[int]], affected_ids: Set[int]) -> Set[int]:
        """The affected ids, grown by the neighbourhood radius."""
        region = set(affected_ids)
        frontier = region
        for _ in range(self._neighbourhood_hops):
            if not frontier:
                break
            frontier = set().union(*[adj[vid] for vid in frontier]) - region
            region |= frontier
        return region

    def _update_anchor_set(
        self,
        maintainer: CoreMaintainer,
        k: int,
        budget: int,
        previous_anchors: List[Vertex],
        affected_ids: Set[int],
    ) -> Tuple[List[Vertex], SolverStats]:
        """Swap / extend the carried-forward anchor set using the affected
        pool, given as ids of the maintained graph."""
        ids, vertices, adj, icore, levels = maintainer.id_store()
        anchors = [ids[anchor] for anchor in previous_anchors if anchor in ids]
        region = self._affected_region(adj, affected_ids)

        # Which carried-forward anchors are worth re-examining: those the delta
        # touched, plus anchors the evolution absorbed into the k-core (their
        # budget is wasted where they stand).
        if self._swap_all_anchors:
            swap_targets = list(anchors)
        else:
            swap_targets = [anchor for anchor in anchors if anchor in region or icore[anchor] >= k]
        fill = self._fill_budget and len(anchors) < budget
        if not swap_targets and not fill:
            # Nothing to swap and no budget to spend: the O(n) copy of the
            # core numbers and the pool scan would be wasted.
            return [vertices[anchor] for anchor in anchors], SolverStats()

        # Theorem-3 relaxation: a useful anchor sits in the region, outside
        # the k-core, next to the (k-1)-shell.  Past the top core both
        # levels are empty.
        k_core = levels[k] if k < len(levels) else set()
        shell = levels[k - 1] - k_core if k - 1 < len(levels) else set()
        anchor_set = set(anchors)
        pool = [
            vid for vid in region.difference(k_core, anchor_set) if not adj[vid].isdisjoint(shell)
        ]
        pool.sort(key=lambda vid: tie_break_key(vertices[vid]))
        if not pool:
            return [vertices[anchor] for anchor in anchors], SolverStats()

        # The working state: the maintained core numbers, raised in place to
        # the anchored ones (capped at k) of the anchor set being evaluated.
        core = list(icore)
        evaluated = visited = iterations = 0
        # candidate id -> (gain, visited count as counted, scope).  An entry
        # is exact while no core number in its scope (the explored region
        # plus the candidate) or next to it changes, the argument of Greedy's
        # gain cache (GreedyAnchoredKCore._invalidate).
        memo: Dict[int, Tuple[int, int, Set[int]]] = {}

        def gain_of(candidate: int) -> int:
            nonlocal evaluated, visited
            entry = memo.get(candidate)
            if entry is None:
                scope = {candidate}
                gained, count = compact_marginal_followers(adj, k, candidate, core, scope)
                entry = memo[candidate] = (len(gained), max(count, 1), scope)
            # A hit replays the recorded count, so the paper's counters equal
            # those of re-running every cascade.
            evaluated += 1
            visited += entry[1]
            return entry[0]

        def retire(changed: Set[int]) -> None:
            """Drop every memoized gain a change of ``changed`` can reach."""
            if not memo or not changed:
                return
            zone = changed.union(*[adj[vid] for vid in changed])
            for candidate in [c for c, entry in memo.items() if not zone.isdisjoint(entry[2])]:
                del memo[candidate]

        def commit_all(chosen: List[int], skip: Optional[int] = None) -> List[Tuple[int, float]]:
            undo: List[Tuple[int, float]] = []
            for anchor in chosen:
                if anchor != skip:
                    undo.extend(commit_anchor_ids(adj, core, anchor, k))
            return undo

        # ``raised`` maps every id the current state raised above its
        # maintained core number to its value there.  Commits only raise, so
        # two states differ exactly on the ids raised in one of them to a
        # value the other does not hold: found from the two maps in
        # O(|undo|), not by comparing n numbers.
        raised: Dict[int, float] = {}

        def move_to(undo: List[Tuple[int, float]]) -> None:
            nonlocal raised
            now = {vid: core[vid] for vid, _ in undo}
            changed = {vid for vid, value in raised.items() if now.get(vid) != value}
            changed.update(vid for vid in now if vid not in raised)
            retire(changed)
            raised = now

        for old_anchor in swap_targets:
            position = anchors.index(old_anchor)
            undo = commit_all(anchors, skip=old_anchor)
            move_to(undo)
            # Only committed vertices move, so the base set's followers are
            # the committed non-anchors that reached the k-core.
            base_followers = {
                vid for vid, value in raised.items() if k <= value != ANCHOR_CORE
            }
            base_total = len(base_followers)

            def total_with(candidate: int) -> int:
                already_follower = 1 if candidate in base_followers else 0
                return base_total + gain_of(candidate) - already_follower

            best_vertex = old_anchor
            best_total = total_with(old_anchor)
            for candidate in pool:
                if candidate in anchor_set:
                    continue
                total = total_with(candidate)
                if total > best_total:
                    best_vertex, best_total = candidate, total
            if best_vertex != old_anchor:
                anchors[position] = best_vertex
                anchor_set = set(anchors)
            iterations += 1
            for vid, value in reversed(undo):
                core[vid] = value

        # Fill phase: spend any unused budget on the restricted pool (a swap
        # never changes the number of anchors).  Gains memoized for the last
        # swap target carry over as far as the state change allows.
        if fill:
            move_to(commit_all(anchors))
            while len(anchors) < budget:
                best_vertex: Optional[int] = None
                best_gain = 0
                for candidate in pool:
                    if candidate in anchor_set:
                        continue
                    gain = gain_of(candidate)
                    if gain > best_gain:
                        best_vertex, best_gain = candidate, gain
                if best_vertex is None or best_gain == 0:
                    break
                anchors.append(best_vertex)
                anchor_set.add(best_vertex)
                # Every id a commit returns rose.
                retire({vid for vid, _ in commit_anchor_ids(adj, core, best_vertex, k)})
                iterations += 1

        stats = SolverStats(
            candidates_evaluated=evaluated, visited_vertices=visited, iterations=iterations
        )
        return [vertices[anchor] for anchor in anchors], stats
