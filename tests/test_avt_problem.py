"""Unit tests for the AVT problem and result containers."""

from __future__ import annotations

import pytest

from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.avt.problem import AVTProblem, AVTResult, SnapshotResult
from repro.errors import ParameterError
from repro.graph.datasets import toy_example_evolving_graph
from repro.graph.dynamic import SnapshotSequence
from repro.graph.static import Graph


def make_snapshot_result(timestamp: int, anchors=(1,), followers=(2, 3)) -> SnapshotResult:
    result = AnchoredKCoreResult(
        algorithm="Test",
        k=3,
        budget=2,
        anchors=tuple(anchors),
        followers=frozenset(followers),
        anchored_core_size=5 + len(followers),
        stats=SolverStats(candidates_evaluated=4, visited_vertices=10, runtime_seconds=0.5),
    )
    return SnapshotResult(
        timestamp=timestamp, result=result, num_vertices=17, num_edges=28
    )


class TestAVTProblem:
    def test_basic_construction(self, toy_evolving):
        problem = AVTProblem(toy_evolving, k=3, budget=2, name="toy")
        assert problem.num_snapshots == 2
        assert problem.k == 3
        assert problem.budget == 2

    def test_invalid_parameters(self, toy_evolving):
        with pytest.raises(ParameterError):
            AVTProblem(toy_evolving, k=0, budget=2)
        with pytest.raises(ParameterError):
            AVTProblem(toy_evolving, k=3, budget=-1)
        for k, budget in ((2.5, 2), ("3", 2), (True, 2), (3, 2.5), (3, None)):
            with pytest.raises(ParameterError):
                AVTProblem(toy_evolving, k=k, budget=budget)

    def test_from_snapshots(self):
        snapshots = [Graph(edges=[(1, 2)]), Graph(edges=[(1, 2), (2, 3)])]
        problem = AVTProblem.from_snapshots(snapshots, k=2, budget=1, name="seq")
        assert problem.num_snapshots == 2
        assert problem.name == "seq"

    def test_from_snapshot_sequence_object(self):
        sequence = SnapshotSequence([Graph(edges=[(1, 2)])])
        problem = AVTProblem.from_snapshots(sequence, k=2, budget=1)
        assert problem.num_snapshots == 1

    def test_truncated(self, toy_evolving):
        problem = AVTProblem(toy_evolving, k=3, budget=2)
        truncated = problem.truncated(1)
        assert truncated.num_snapshots == 1
        assert truncated.k == problem.k


class TestSnapshotResult:
    def test_convenience_accessors(self):
        snapshot = make_snapshot_result(0)
        assert snapshot.anchors == (1,)
        assert snapshot.num_followers == 2
        assert snapshot.timestamp == 0


class TestAVTResult:
    def test_aggregates(self):
        result = AVTResult(algorithm="Test", k=3, budget=2, problem_name="toy")
        result.append(make_snapshot_result(0, anchors=(1,), followers=(2, 3)))
        result.append(make_snapshot_result(1, anchors=(4,), followers=(5, 6, 7)))
        assert len(result) == 2
        assert result.followers_per_snapshot == [2, 3]
        assert result.total_followers == 5
        assert result.anchor_sets == [(1,), (4,)]
        assert result.total_runtime_seconds == pytest.approx(1.0)
        assert result.total_visited_vertices == 20
        assert result.total_candidates_evaluated == 8

    def test_aggregate_stats_merge(self):
        result = AVTResult(algorithm="Test", k=3, budget=2, problem_name="toy")
        result.append(make_snapshot_result(0))
        result.append(make_snapshot_result(1))
        merged = result.aggregate_stats()
        assert merged.candidates_evaluated == 8
        assert merged.visited_vertices == 20
        assert merged.runtime_seconds == pytest.approx(1.0)

    def test_summary_mentions_key_numbers(self):
        result = AVTResult(algorithm="Test", k=3, budget=2, problem_name="toy")
        result.append(make_snapshot_result(0))
        text = result.summary()
        assert "Test" in text and "toy" in text and "k=3" in text

    def test_iteration(self):
        result = AVTResult(algorithm="Test", k=3, budget=2, problem_name="toy")
        result.append(make_snapshot_result(0))
        assert [snapshot.timestamp for snapshot in result] == [0]
