"""Unit tests for core decomposition, k-cores, shells and anchored decomposition."""

from __future__ import annotations

import math

import networkx as nx
import pytest

from repro.cores.decomposition import (
    ANCHOR_CORE,
    anchored_core_decomposition,
    core_decomposition,
    core_numbers,
    degeneracy,
    k_core,
    k_shell,
)
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.static import Graph

from tests.conftest import random_graph, to_networkx


class TestCoreNumbers:
    def test_empty_graph(self):
        assert core_numbers(Graph()) == {}

    def test_isolated_vertices_have_core_zero(self):
        graph = Graph(vertices=[1, 2, 3])
        assert core_numbers(graph) == {1: 0, 2: 0, 3: 0}

    def test_single_edge(self):
        graph = Graph(edges=[(1, 2)])
        assert core_numbers(graph) == {1: 1, 2: 1}

    def test_triangle_with_pendant(self, triangle_graph):
        core = core_numbers(triangle_graph)
        assert core == {1: 2, 2: 2, 3: 2, 4: 1}

    def test_clique_core_equals_size_minus_one(self):
        size = 6
        edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
        core = core_numbers(Graph(edges=edges))
        assert all(value == size - 1 for value in core.values())

    def test_matches_networkx_on_toy_graph(self, toy_graph):
        assert core_numbers(toy_graph) == nx.core_number(to_networkx(toy_graph))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx_on_random_graphs(self, seed):
        graph = random_graph(seed)
        assert core_numbers(graph) == nx.core_number(to_networkx(graph))

    def test_matches_networkx_on_ba_and_cl_graphs(self, ba_graph, cl_graph):
        for graph in (ba_graph, cl_graph):
            assert core_numbers(graph) == nx.core_number(to_networkx(graph))


class TestDecompositionResult:
    def test_order_is_a_permutation_of_vertices(self, cl_graph):
        decomposition = core_decomposition(cl_graph)
        assert sorted(decomposition.order, key=repr) == sorted(cl_graph.vertices(), key=repr)

    def test_order_is_sorted_by_core_number(self, cl_graph):
        decomposition = core_decomposition(cl_graph)
        values = [decomposition.core[vertex] for vertex in decomposition.order]
        assert values == sorted(values)

    def test_order_is_deterministic(self, cl_graph):
        first = core_decomposition(cl_graph)
        second = core_decomposition(cl_graph)
        assert first.order == second.order

    @pytest.mark.parametrize("anchors", [(), (1,)], ids=["plain", "anchored"])
    def test_core_of_unknown_vertex_raises_vertex_not_found(self, anchors):
        decomposition = anchored_core_decomposition(Graph(edges=[(1, 2)]), anchors)
        assert decomposition.core_of(2) == 1
        with pytest.raises(VertexNotFoundError):
            decomposition.core_of(99)

    def test_k_core_and_shell_helpers(self, toy_graph):
        assert k_core(toy_graph, 3) == {8, 9, 12, 13, 16}
        assert k_core(toy_graph, 0) == set(toy_graph.vertices())
        assert k_shell(toy_graph, 1) == {4}
        decomposition = core_decomposition(toy_graph)
        assert decomposition.k_core_vertices(3) == {8, 9, 12, 13, 16}
        assert decomposition.shell_vertices(3) == {8, 9, 12, 13, 16}

    def test_k_core_matches_networkx(self, cl_graph):
        for k in range(0, degeneracy(cl_graph) + 1):
            expected = set(nx.k_core(to_networkx(cl_graph), k).nodes())
            assert k_core(cl_graph, k) == expected

    def test_k_core_rejects_negative_k(self, toy_graph):
        with pytest.raises(ParameterError):
            k_core(toy_graph, -1)

    @pytest.mark.parametrize("k", [2.5, "3", True, None])
    def test_k_core_rejects_non_integer_k(self, toy_graph, k):
        with pytest.raises(ParameterError):
            k_core(toy_graph, k)

    def test_degeneracy(self, toy_graph):
        assert degeneracy(toy_graph) == 3
        assert degeneracy(Graph()) == 0

    def test_every_kcore_member_has_k_neighbours_inside(self, cl_graph):
        for k in (2, 3, 4):
            members = k_core(cl_graph, k)
            for vertex in members:
                inside = sum(1 for n in cl_graph.neighbors(vertex) if n in members)
                assert inside >= k


class TestAnchoredDecomposition:
    def test_anchors_receive_infinite_core(self, toy_graph):
        decomposition = anchored_core_decomposition(toy_graph, anchors={7, 10})
        assert decomposition.core[7] == ANCHOR_CORE
        assert decomposition.core[10] == ANCHOR_CORE
        assert math.isinf(ANCHOR_CORE)

    def test_anchored_k_core_matches_example_3(self, toy_graph):
        decomposition = anchored_core_decomposition(toy_graph, anchors={7, 10})
        anchored_core = decomposition.k_core_vertices(3)
        assert anchored_core == {8, 9, 12, 13, 16, 7, 10, 2, 3, 5, 6, 11}
        assert len(anchored_core) == 12

    def test_anchoring_never_lowers_core_numbers(self, cl_graph):
        plain = core_numbers(cl_graph)
        anchors = list(cl_graph.vertices())[:3]
        anchored = anchored_core_decomposition(cl_graph, anchors=anchors)
        for vertex, value in plain.items():
            assert anchored.core[vertex] >= value

    def test_empty_anchor_set_equals_plain_decomposition(self, cl_graph):
        plain = core_decomposition(cl_graph)
        anchored = anchored_core_decomposition(cl_graph, anchors=())
        assert plain.core == anchored.core

    def test_unknown_anchor_raises(self, toy_graph):
        with pytest.raises(ParameterError):
            anchored_core_decomposition(toy_graph, anchors={999})

    def test_fully_anchored_graph(self):
        graph = Graph(edges=[(1, 2), (2, 3)])
        decomposition = anchored_core_decomposition(graph, anchors={1, 2, 3})
        assert all(value == ANCHOR_CORE for value in decomposition.core.values())
        assert set(decomposition.order) == {1, 2, 3}
