"""The numpy snapshot of a maintained graph, gathered from the maintainer's ids.

An exact solve that holds a :class:`~repro.cores.maintenance.CoreMaintainer`
(an engine's cold query, IncAVT's first snapshot and its restarts) runs on
the backend :meth:`~repro.backends.ExecutionBackend.bound_to` returns.  On
numpy, that backend gathers the index's snapshot from the maintainer's id
rows in the tie-break order the maintainer caches, instead of interning the
graph.  These tests pin that the two builds cannot be told apart:

* the snapshots hold the same vertices at the same ids (id == tie-break
  rank) and the same rows, up to the order inside a row;
* after ``refresh`` with a drawn anchor set, and after each of a few
  ``commit_anchor`` calls, both kernels hold equal core numbers, equal
  ``(k-1)``-shell removal ranks, equal candidates under both pruning modes,
  equal ``(gained, visited, region)`` for every candidate and equal touched
  sets.

The graphs mix vertex types (ints, negative ints, strings, tuples), and
every maintainer has changed its vertex set after its order was cached: it
gained vertices through ``insert_edge`` and ``apply_delta``, or gained one
that sorts before every other vertex, or was rebuilt by
``refresh_from_graph`` after the graph lost and gained vertices.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import get_backend, numpy_available
from repro.cores.maintenance import CoreMaintainer
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key

pytestmark = pytest.mark.skipif(not numpy_available(), reason="numpy backend unavailable")

#: The starting vertices: every type the tie-break key orders.
POOL: List[Vertex] = list(range(8)) + [-2, -7, "a", "b", "c", (0, 1), (1, 0), ("a",)]
#: Vertices a maintainer gains later.
NEWCOMERS: List[Vertex] = [8, 9, "new", (2, 2)]
#: Sorts before every vertex above: ``("int", "-1")``.
FIRST: Vertex = -1

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def edges_over(pool: List[Vertex], max_size: int):
    return st.lists(
        st.tuples(st.sampled_from(pool), st.sampled_from(pool)).filter(
            lambda edge: edge[0] != edge[1]
        ),
        max_size=max_size,
    )


def maintained(scenario: str, base_edges, later_edges) -> CoreMaintainer:
    """A maintainer whose vertex set changed after its order was cached."""
    maintainer = CoreMaintainer(Graph(edges=base_edges, vertices=POOL))
    maintainer.tie_break_order()
    if scenario == "rebuilt":
        graph = maintainer.graph
        for vertex in ("b", 3, (1, 0)):
            graph.remove_vertex(vertex)
        graph.add_edges(later_edges)
        graph.add_vertex("z")
        maintainer.refresh_from_graph()
        return maintainer
    if scenario == "first":
        maintainer.insert_edge(FIRST, later_edges[0][0] if later_edges else 0)
    half = len(later_edges) // 2
    for u, v in later_edges[:half]:
        maintainer.insert_edge(u, v)
    maintainer.apply_delta(
        EdgeDelta.from_iterables(inserted=later_edges[half:], removed=base_edges[:2])
    )
    return maintainer


def assert_same_state(from_ids, from_graph, k: int) -> None:
    core = from_graph.core_numbers()
    assert from_ids.core_numbers() == core
    shell = [vertex for vertex, value in core.items() if value == k - 1]
    ids_ranks, graph_ranks = from_ids.removal_ranks(), from_graph.removal_ranks()
    assert {v: ids_ranks[v] for v in shell} == {v: graph_ranks[v] for v in shell}
    for pruning in (True, False):
        assert from_ids.candidate_anchors(k, pruning) == from_graph.candidate_anchors(
            k, pruning
        )
    for candidate in sorted(from_graph.candidate_anchors(k, False), key=tie_break_key):
        assert from_ids.marginal_followers_with_region(
            k, candidate
        ) == from_graph.marginal_followers_with_region(k, candidate)


@pytest.mark.parametrize("scenario", ["grown", "first", "rebuilt"])
@SETTINGS
@given(
    base_edges=edges_over(POOL, 40),
    later_edges=edges_over(POOL + NEWCOMERS, 10),
    k=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_an_id_snapshot_reaches_every_state_of_a_graph_snapshot(
    scenario, base_edges, later_edges, k, data
):
    from repro.backends.numpy_backend import NumpyGraph

    maintainer = maintained(scenario, base_edges, later_edges)
    graph = maintainer.graph
    if scenario == "first":
        assert min(graph.vertices(), key=tie_break_key) == FIRST

    gathered, interned = NumpyGraph.from_maintainer(maintainer), NumpyGraph.from_graph(graph)
    assert gathered.interner.vertices == interned.interner.vertices
    assert gathered.indptr_list == interned.indptr_list == gathered.indptr.tolist()
    assert gathered.indices.tolist() == gathered.indices_list
    assert gathered.num_edges == interned.num_edges
    for vid in range(interned.num_vertices):
        assert sorted(gathered.rows[vid]) == sorted(interned.rows[vid])

    numpy = get_backend("numpy")
    from_ids = numpy.bound_to(maintainer).build_core_index(graph)
    from_graph = numpy.build_core_index(graph)
    vertices = sorted(graph.vertices(), key=tie_break_key)
    anchors = set(data.draw(st.lists(st.sampled_from(vertices), max_size=3)))
    from_ids.refresh(set(anchors), k)
    from_graph.refresh(set(anchors), k)
    assert_same_state(from_ids, from_graph, k)
    for vertex in data.draw(st.lists(st.sampled_from(vertices), max_size=3)):
        if vertex in anchors:
            continue
        anchors.add(vertex)
        touched = from_ids.commit_anchor(vertex, set(anchors), k)
        assert touched == from_graph.commit_anchor(vertex, set(anchors), k)
        assert_same_state(from_ids, from_graph, k)


def test_only_the_maintained_graph_is_gathered_from_ids(monkeypatch):
    from repro.backends.numpy_backend import NumpyGraph

    built: List[str] = []
    from_maintainer, from_graph = NumpyGraph.from_maintainer, NumpyGraph.from_graph
    monkeypatch.setattr(
        NumpyGraph,
        "from_maintainer",
        lambda maintainer: built.append("ids") or from_maintainer(maintainer),
    )
    monkeypatch.setattr(
        NumpyGraph,
        "from_graph",
        lambda graph, ordered=True: built.append("graph") or from_graph(graph, ordered),
    )
    maintainer = CoreMaintainer(Graph(edges=[(0, 1), (1, 2), (2, 0), (2, "x")]))
    numpy = get_backend("numpy")
    bound = numpy.bound_to(maintainer)
    assert bound.name == "numpy"
    bound.build_core_index(maintainer.graph)
    bound.build_core_index(maintainer.graph.copy())
    numpy.build_core_index(maintainer.graph)
    assert built == ["ids", "graph", "graph"]


def test_backends_without_a_snapshot_bind_to_themselves():
    maintainer = CoreMaintainer(Graph(edges=[(0, 1)]))
    dict_backend = get_backend("dict")
    assert dict_backend.bound_to(maintainer) is dict_backend
