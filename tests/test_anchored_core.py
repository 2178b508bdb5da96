"""Unit tests for the AnchoredCoreIndex working state."""

from __future__ import annotations

import pytest

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.followers import compute_followers, follower_gain
from repro.cores.decomposition import ANCHOR_CORE
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.static import Graph


class TestConstruction:
    def test_requires_positive_k(self, toy_graph):
        with pytest.raises(ParameterError):
            AnchoredCoreIndex(toy_graph, 0)

    @pytest.mark.parametrize("k", [2.5, "3", True, None])
    def test_requires_integer_k(self, toy_graph, k):
        with pytest.raises(ParameterError):
            AnchoredCoreIndex(toy_graph, k)

    def test_accepts_numpy_integer_k(self, toy_graph):
        np = pytest.importorskip("numpy")
        index = AnchoredCoreIndex(toy_graph, np.int64(3))
        assert index.anchored_core_size() == AnchoredCoreIndex(toy_graph, 3).anchored_core_size()

    def test_unknown_anchor_raises(self, toy_graph):
        with pytest.raises(VertexNotFoundError):
            AnchoredCoreIndex(toy_graph, 3, anchors=[999])

    def test_initial_state_without_anchors(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        assert index.k == 3
        assert index.anchors == set()
        assert index.anchored_core_vertices() == {8, 9, 12, 13, 16}
        assert index.anchored_core_size() == 5
        assert index.followers() == set()
        assert index.plain_k_core() == {8, 9, 12, 13, 16}

    def test_initial_state_with_anchors(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3, anchors=[7, 10])
        assert index.core(7) == ANCHOR_CORE
        assert index.followers() == {2, 3, 5, 6, 11}
        assert index.anchored_core_size() == 12


class TestCandidates:
    def test_candidates_exclude_anchors_and_core(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3, anchors=[10])
        candidates = index.candidate_anchors()
        assert 10 not in candidates
        assert candidates.isdisjoint(index.anchored_core_vertices())
        # A 5-clique is its own 4-core: at k = 4 there is no 3-shell and
        # no candidate, with or without order pruning.
        clique = AnchoredCoreIndex(
            Graph(edges=[(u, v) for u in range(5) for v in range(u + 1, 5)]), 4
        )
        assert clique.candidate_anchors(order_pruning=True) == set()
        assert clique.candidate_anchors(order_pruning=False) == set()

    def test_order_pruning_is_a_subset_of_relaxed_filter(self, cl_graph):
        index = AnchoredCoreIndex(cl_graph, 4)
        pruned = index.candidate_anchors(order_pruning=True)
        relaxed = index.candidate_anchors(order_pruning=False)
        assert pruned <= relaxed

    def test_pruning_never_discards_a_productive_candidate(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        pruned = index.candidate_anchors(order_pruning=True)
        for vertex in toy_graph.vertices():
            if index.core(vertex) >= 3:
                continue
            if follower_gain(toy_graph, 3, [], vertex):
                assert vertex in pruned, vertex

    def test_all_non_core_vertices(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        universe = index.all_non_core_vertices()
        assert universe == set(toy_graph.vertices()) - {8, 9, 12, 13, 16}


class TestFollowerEvaluation:
    def test_marginal_followers_counts_instrumentation(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        before = index.candidates_evaluated
        gained = index.marginal_followers(10)
        assert gained == {2, 3, 5, 6, 11}
        assert index.candidates_evaluated == before + 1
        assert index.visited_vertices > 0

    def test_full_shell_flag_gives_same_result_more_visits(self, toy_graph):
        index_fast = AnchoredCoreIndex(toy_graph, 3)
        index_slow = AnchoredCoreIndex(toy_graph, 3)
        fast = index_fast.marginal_followers(17, full_shell=False)
        slow = index_slow.marginal_followers(17, full_shell=True)
        assert fast == slow == {14, 15}
        assert index_slow.visited_vertices >= index_fast.visited_vertices

    def test_marginal_followers_respects_existing_anchors(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3, anchors=[10])
        gained = index.marginal_followers(17)
        assert gained == follower_gain(toy_graph, 3, [10], 17)


class TestMutation:
    def test_commit_anchor_updates_followers(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        index.commit_anchor(10)
        assert index.followers() == compute_followers(toy_graph, 3, {10})
        index.commit_anchor(17)
        assert index.followers() == compute_followers(toy_graph, 3, {10, 17})

    def test_commit_anchor_twice_is_idempotent(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        index.commit_anchor(10)
        followers = index.followers()
        assert index.commit_anchor(10) == frozenset()
        assert index.followers() == followers

    def test_add_unknown_anchor_raises(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        with pytest.raises(VertexNotFoundError):
            index.commit_anchor(12345)

    def test_shell_view(self, toy_graph):
        index = AnchoredCoreIndex(toy_graph, 3)
        shell = index.shell()
        assert 14 in shell and 15 in shell
        assert shell.isdisjoint({8, 9, 12, 13, 16})
