"""Unit tests for the compact integer-ID snapshot structures."""

from __future__ import annotations

import pytest

from repro.errors import VertexNotFoundError
from repro.graph.compact import CompactGraph, DynamicCompactAdjacency, VertexInterner
from repro.graph.static import Graph


class TestVertexInterner:
    def test_ids_are_dense_and_stable(self):
        interner = VertexInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0  # re-interning does not move ids
        assert interner.id_of("b") == 1
        assert interner.vertex_of(0) == "a"
        assert len(interner) == 2
        assert "a" in interner and "c" not in interner
        assert list(interner) == ["a", "b"]

    def test_unknown_vertex_raises(self):
        interner = VertexInterner(["only"])
        with pytest.raises(VertexNotFoundError):
            interner.id_of("missing")
        assert interner.get_id("missing") == -1

    def test_translate_round_trips(self):
        interner = VertexInterner([10, "x", 20])
        assert interner.translate([0, 2]) == {10, 20}


class TestCompactGraph:
    def test_csr_shape_matches_graph(self):
        graph = Graph(edges=[(1, 2), (2, 3)], vertices=[1, 2, 3, 99])
        cgraph = CompactGraph.from_graph(graph)
        assert cgraph.num_vertices == 4
        assert cgraph.num_edges == 2
        assert sum(cgraph.degrees) == 2 * graph.num_edges
        two = cgraph.interner.id_of(2)
        neighbours = cgraph.interner.translate(cgraph.neighbor_ids(two))
        assert neighbours == {1, 3}
        # Vertex 99 is isolated: empty row.
        assert cgraph.neighbor_ids(cgraph.interner.id_of(99)) == []

    def test_ordered_snapshot_ids_follow_tie_break_order(self):
        graph = Graph(vertices=[5, 1, 3])
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        assert [cgraph.interner.vertex_of(vid) for vid in range(3)] == [1, 3, 5]


class TestDynamicCompactAdjacency:
    def test_mirror_tracks_edges(self):
        graph = Graph(edges=[("a", "b")], vertices=["a", "b", "c"])
        mirror = DynamicCompactAdjacency.from_graph(graph)
        a, b = mirror.interner.id_of("a"), mirror.interner.id_of("b")
        assert b in mirror.adj[a] and a in mirror.adj[b]
        c = mirror.ensure_vertex("c")
        d = mirror.ensure_vertex("d")  # new vertex grows the structure
        assert len(mirror) == 4
        mirror.add_edge_ids(c, d)
        assert d in mirror.adj[c]
        mirror.remove_edge_ids(c, d)
        assert d not in mirror.adj[c]
        mirror.remove_edge_ids(c, d)  # removing an absent edge is a no-op
