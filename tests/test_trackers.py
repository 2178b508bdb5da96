"""Unit tests for the per-snapshot trackers (Greedy / OLAK / RCM / brute force)."""

from __future__ import annotations

import pytest

from repro.anchored.followers import compute_followers
from repro.avt.problem import AVTProblem
from repro.avt.trackers import (
    BruteForceTracker,
    GreedyTracker,
    OLAKTracker,
    RCMTracker,
    SnapshotTracker,
)
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.errors import ParameterError
from repro.graph.datasets import load_dataset

TRACKERS = [GreedyTracker, OLAKTracker, RCMTracker]


@pytest.fixture
def toy_problem(toy_evolving):
    return AVTProblem(toy_evolving, k=3, budget=2, name="toy")


class TestSnapshotTrackerMachinery:
    def test_custom_factory_and_naming(self, toy_problem):
        tracker = SnapshotTracker(
            lambda graph, k, budget: GreedyAnchoredKCore(graph, k, budget)
        )
        result = tracker.track(toy_problem)
        # Name falls back to the solver's own name on the first snapshot.
        assert result.algorithm == "Greedy"
        assert len(result) == 2

    def test_max_snapshots_limits_work(self, toy_problem):
        result = GreedyTracker().track(toy_problem, max_snapshots=1)
        assert len(result) == 1

    def test_negative_max_snapshots_rejected(self, toy_problem):
        with pytest.raises(ParameterError):
            GreedyTracker().track(toy_problem, max_snapshots=-1)
        assert len(GreedyTracker().track(toy_problem, max_snapshots=0)) == 0
        for bad in (1.5, "1", True):
            with pytest.raises(ParameterError):
                GreedyTracker().track(toy_problem, max_snapshots=bad)

    def test_snapshot_metadata_records_deltas(self, toy_problem):
        result = GreedyTracker().track(toy_problem)
        assert result.snapshots[0].edges_inserted == 0
        assert result.snapshots[1].edges_inserted == 1
        assert result.snapshots[1].edges_removed == 1


class TestTrackerContracts:
    @pytest.mark.parametrize("tracker_cls", TRACKERS)
    def test_one_result_per_snapshot(self, toy_problem, tracker_cls):
        result = tracker_cls().track(toy_problem)
        assert len(result) == toy_problem.num_snapshots
        assert [snapshot.timestamp for snapshot in result] == [0, 1]

    @pytest.mark.parametrize("tracker_cls", TRACKERS)
    def test_budget_respected_at_every_snapshot(self, toy_problem, tracker_cls):
        result = tracker_cls().track(toy_problem)
        for snapshot in result:
            assert len(snapshot.anchors) <= toy_problem.budget

    @pytest.mark.parametrize("tracker_cls", TRACKERS)
    def test_reported_followers_match_recomputation(self, toy_evolving, tracker_cls):
        problem = AVTProblem(toy_evolving, k=3, budget=2, name="toy")
        result = tracker_cls().track(problem)
        snapshots = list(toy_evolving.snapshots())
        for snapshot_result, graph in zip(result, snapshots):
            expected = compute_followers(graph, 3, snapshot_result.anchors)
            assert set(snapshot_result.result.followers) == expected

    def test_brute_force_tracker_on_toy(self, toy_problem):
        result = BruteForceTracker().track(toy_problem)
        assert len(result) == 2
        assert result.snapshots[0].num_followers == 7

    def test_exact_small_k_tracker_for_k2(self, toy_evolving):
        from repro.avt.trackers import ExactSmallKTracker
        from repro.anchored.bruteforce import BruteForceAnchoredKCore

        problem = AVTProblem(toy_evolving, k=2, budget=2, name="toy")
        exact = ExactSmallKTracker().track(problem)
        assert len(exact) == 2
        # Per-snapshot optimality: matches the brute-force optimum at t = 1.
        brute = BruteForceAnchoredKCore(toy_evolving.base, 2, 2).select()
        assert exact.snapshots[0].num_followers == brute.num_followers

    def test_exact_small_k_tracker_rejects_hard_k(self, toy_problem):
        from repro.avt.trackers import ExactSmallKTracker
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            ExactSmallKTracker().track(toy_problem)  # toy_problem has k = 3

    def test_trackers_on_a_dataset_standin(self):
        evolving = load_dataset("gnutella", num_snapshots=3, scale=0.15, seed=2)
        problem = AVTProblem(evolving, k=3, budget=3, name="gnutella")
        greedy = GreedyTracker().track(problem)
        rcm = RCMTracker().track(problem)
        assert len(greedy) == len(rcm) == 3
        assert greedy.total_followers >= rcm.total_followers * 0.5
