"""Unit tests for the integer-id interner and adjacency mirror."""

from __future__ import annotations

import pytest

from repro.errors import VertexNotFoundError
from repro.graph.compact import DynamicCompactAdjacency, VertexInterner
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
