"""Per-snapshot trackers: run a static anchored k-core solver at every timestamp.

These trackers adapt the static algorithms (Greedy, OLAK, RCM, brute force) to
the AVT problem exactly the way the paper's baselines do: re-run the solver
from scratch on every snapshot.  They share the :class:`SnapshotTracker`
machinery; the incremental algorithm lives in :mod:`repro.avt.incremental`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from repro.anchored.bruteforce import BruteForceAnchoredKCore
from repro.anchored.exact_small_k import ExactSmallK
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.olak import OLAKAnchoredKCore
from repro.anchored.rcm import RCMAnchoredKCore
from repro.avt.problem import AVTProblem, AVTResult, SnapshotResult
from repro.backends import BACKEND_AUTO, ExecutionBackend
from repro.errors import require_int
from repro.graph.static import Graph

SolverFactory = Callable[[Graph, int, int], object]


class SnapshotTracker:
    """Track anchors by running an independent solver at every snapshot.

    Parameters
    ----------
    solver_factory:
        Callable ``(graph, k, budget) -> solver`` where the solver exposes
        ``select() -> AnchoredKCoreResult`` (all solvers in
        :mod:`repro.anchored` qualify).
    name:
        Label recorded in the results; defaults to the solver's own name.
    """

    def __init__(self, solver_factory: SolverFactory, name: Optional[str] = None) -> None:
        self._solver_factory = solver_factory
        self._name = name

    def track(self, problem: AVTProblem, max_snapshots: Optional[int] = None) -> AVTResult:
        """Solve the AVT problem snapshot by snapshot."""
        if max_snapshots is not None:
            require_int("max_snapshots", max_snapshots, 0)
        deltas = problem.evolving_graph.deltas
        name = self._name or "snapshot-tracker"
        result = AVTResult(
            algorithm=name, k=problem.k, budget=problem.budget, problem_name=problem.name
        )
        current = problem.evolving_graph.base.copy()
        limit = problem.num_snapshots if max_snapshots is None else min(max_snapshots, problem.num_snapshots)
        for timestamp in range(limit):
            if timestamp > 0:
                deltas[timestamp - 1].apply(current)
            solver = self._solver_factory(current, problem.k, problem.budget)
            selection = solver.select()
            if self._name is None and timestamp == 0:
                name = selection.algorithm
                result.algorithm = name
            delta = deltas[timestamp - 1] if timestamp > 0 else None
            result.append(
                SnapshotResult(
                    timestamp=timestamp,
                    result=selection,
                    num_vertices=current.num_vertices,
                    num_edges=current.num_edges,
                    edges_inserted=len(delta.inserted) if delta else 0,
                    edges_removed=len(delta.removed) if delta else 0,
                )
            )
        return result


class GreedyTracker(SnapshotTracker):
    """The paper's optimised Greedy applied independently at every snapshot."""

    def __init__(
        self,
        order_pruning: bool = True,
        stop_on_zero_gain: bool = True,
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        super().__init__(
            lambda graph, k, budget: GreedyAnchoredKCore(
                graph,
                k,
                budget,
                order_pruning=order_pruning,
                stop_on_zero_gain=stop_on_zero_gain,
                backend=backend,
            ),
            name="Greedy",
        )


class OLAKTracker(SnapshotTracker):
    """OLAK re-run from scratch at every snapshot (baseline)."""

    def __init__(self, stop_on_zero_gain: bool = True, backend: Union[str, ExecutionBackend] = BACKEND_AUTO) -> None:
        super().__init__(
            lambda graph, k, budget: OLAKAnchoredKCore(
                graph, k, budget, stop_on_zero_gain=stop_on_zero_gain, backend=backend
            ),
            name="OLAK",
        )


class RCMTracker(SnapshotTracker):
    """RCM re-run from scratch at every snapshot (baseline)."""

    def __init__(
        self,
        shortlist_size: int = 20,
        stop_on_zero_gain: bool = True,
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        super().__init__(
            lambda graph, k, budget: RCMAnchoredKCore(
                graph,
                k,
                budget,
                shortlist_size=shortlist_size,
                stop_on_zero_gain=stop_on_zero_gain,
                backend=backend,
            ),
            name="RCM",
        )


class BruteForceTracker(SnapshotTracker):
    """Exact brute-force selection at every snapshot (case-study use only)."""

    def __init__(self, max_combinations: int = 2_000_000) -> None:
        super().__init__(
            lambda graph, k, budget: BruteForceAnchoredKCore(
                graph, k, budget, max_combinations=max_combinations
            ),
            name="Brute-force",
        )


class ExactSmallKTracker(SnapshotTracker):
    """Exact polynomial tracker for k <= 2 (Theorem 1) applied at every snapshot.

    Useful as an optimality reference on the tractable side of the complexity
    boundary; for k >= 3 constructing it raises, matching the NP-hardness
    result.
    """

    def __init__(self) -> None:
        super().__init__(
            lambda graph, k, budget: ExactSmallK(graph, k, budget),
            name="Exact-small-k",
        )
