"""Tests for the exact polynomial solvers for k = 1 and k = 2 (Theorem 1)."""

from __future__ import annotations

import random

import pytest

from repro.anchored.bruteforce import BruteForceAnchoredKCore
from repro.anchored.exact_small_k import ExactSmallK, solve_k1, solve_k2
from repro.anchored.followers import compute_followers
from repro.cores.decomposition import k_core
from repro.errors import ParameterError
from repro.graph.generators import erdos_renyi_graph
from repro.graph.static import Graph


class TestSolveK1:
    def test_anchors_isolated_vertices_only(self):
        graph = Graph(edges=[(1, 2), (2, 3)], vertices=[10, 11, 12])
        result = solve_k1(graph, budget=2)
        assert set(result.anchors) <= {10, 11, 12}
        assert len(result.anchors) == 2
        assert result.followers == frozenset()
        assert result.anchored_core_size == 3 + 2  # 1-core plus the two anchors

    def test_budget_exceeds_isolated_vertices(self):
        graph = Graph(edges=[(1, 2)], vertices=[5])
        result = solve_k1(graph, budget=4)
        assert result.anchors == (5,)

    def test_no_isolated_vertices(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        result = solve_k1(graph, budget=3)
        assert result.anchors == ()
        assert result.anchored_core_size == 3

    def test_negative_budget_raises(self):
        with pytest.raises(ParameterError):
            solve_k1(Graph(), -1)


class TestSolveK2:
    def test_path_hanging_off_a_core(self):
        # Triangle (2-core) with a path 3-4-5-6 hanging off it: anchoring the
        # far end (6) pulls the whole path in.
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6)])
        result = solve_k2(graph, budget=1)
        assert result.anchors == (6,)
        assert set(result.followers) == {4, 5}
        assert result.anchored_core_size == 6

    def test_pure_tree_needs_two_anchors(self):
        # A path with no 2-core at all: one anchor gains nothing, two anchors
        # at the endpoints pull in the interior.
        graph = Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 5)])
        one = solve_k2(graph, budget=1)
        two = solve_k2(graph, budget=2)
        assert one.num_followers == 0
        assert set(two.anchors) == {1, 5}
        assert set(two.followers) == {2, 3, 4}

    def test_star_tree(self):
        # A star: anchoring two leaves covers only the centre.
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3), (0, 4)])
        result = solve_k2(graph, budget=2)
        assert result.num_followers == 1
        assert 0 in result.followers

    def test_budget_split_across_trees(self):
        # Two separate paths hanging off one triangle: each is worth anchoring.
        graph = Graph(
            edges=[
                (1, 2), (2, 3), (1, 3),       # 2-core
                (3, 10), (10, 11), (11, 12),  # first tail
                (1, 20), (20, 21),            # second tail
            ]
        )
        result = solve_k2(graph, budget=2)
        assert set(result.anchors) == {12, 21}
        assert set(result.followers) == {10, 11, 20}

    def test_followers_match_recomputation(self):
        graph = erdos_renyi_graph(40, 45, seed=3)
        result = solve_k2(graph, budget=3)
        assert set(result.followers) == compute_followers(graph, 2, result.anchors)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_matches_brute_force_optimum(self, seed, budget):
        # Sparse random graphs have plenty of tree structure outside the 2-core.
        graph = erdos_renyi_graph(18, 19, seed=seed)
        exact = solve_k2(graph, budget=budget)
        brute = BruteForceAnchoredKCore(graph, 2, budget, max_combinations=10_000_000).select()
        assert exact.num_followers == brute.num_followers, (seed, budget)

    def test_empty_graph(self):
        result = solve_k2(Graph(), budget=2)
        assert result.anchors == ()
        assert result.num_followers == 0

    def test_graph_entirely_inside_two_core(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        result = solve_k2(Graph(edges=edges), budget=2)
        assert result.anchors == ()
        assert result.num_followers == 0


class TestDispatcher:
    def test_dispatches_by_k(self, toy_graph):
        assert ExactSmallK(toy_graph, 1, 2).select().algorithm == "Exact-k1"
        assert ExactSmallK(toy_graph, 2, 2).select().algorithm == "Exact-k2"

    def test_rejects_np_hard_regime(self, toy_graph):
        with pytest.raises(ParameterError):
            ExactSmallK(toy_graph, 3, 2)

    def test_rejects_negative_budget(self, toy_graph):
        with pytest.raises(ParameterError):
            ExactSmallK(toy_graph, 2, -1)

    @pytest.mark.parametrize("k, budget", [(True, 2), (2, 2.5), (2, None), (2, True)])
    def test_rejects_non_integer_k_or_budget(self, toy_graph, k, budget):
        with pytest.raises(ParameterError):
            ExactSmallK(toy_graph, k, budget)

    def test_k2_on_toy_graph_beats_or_matches_brute_force(self, toy_graph):
        exact = ExactSmallK(toy_graph, 2, 2).select()
        brute = BruteForceAnchoredKCore(toy_graph, 2, 2).select()
        assert exact.num_followers == brute.num_followers
