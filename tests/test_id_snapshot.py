"""The numpy snapshot of a maintained graph, in the maintainer's own ids.

An exact solve that holds a :class:`~repro.cores.maintenance.CoreMaintainer`
(an engine's cold query, IncAVT's first snapshot and its restarts) runs on
the backend :meth:`~repro.backends.ExecutionBackend.bound_to` returns.  On
numpy, that backend builds the index's snapshot from the maintainer's id
space: its ids, vertices and adjacency sets, with no sort and no interning.
A bare graph's snapshot interns the graph in its iteration order instead.
Neither id order is the tie-break order, and the two differ, so the kernels
key only the vertices they order.  These tests pin:

* both snapshots hold the same vertices, and each vertex the same neighbour
  set, compared by vertex (their ids differ);
* after ``refresh`` with a drawn anchor set, and after each of a few
  ``commit_anchor`` calls, both numpy kernels hold the dict kernel's core
  numbers, candidates under both pruning modes, ``(gained, visited,
  region)`` for every candidate and touched sets, and removal ranks in the
  dict kernel's (full-peel) order within each ``(k-1)``-shell component;
* an index build keys (:func:`~repro.ordering.tie_break_key`) no vertex
  outside the ``(k-1)``-shell;
* a bound kernel keeps the vertex set it was built with when its
  maintainer gains a vertex.

The graphs mix vertex types (ints, negative ints, strings, tuples), and
every maintainer's ids are out of tie-break order: it gained vertices
through ``insert_edge`` and ``apply_delta``, or gained one that sorts
before every other vertex, or was rebuilt by ``refresh_from_graph`` after
the graph lost and gained vertices.
"""

from __future__ import annotations

import sys
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ordering
from repro.backends import get_backend, numpy_available
from repro.cores.maintenance import CoreMaintainer
from repro.errors import VertexNotFoundError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key
from tests.conftest import shell_components

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
    """A maintainer whose ids are out of tie-break order."""
    maintainer = CoreMaintainer(Graph(edges=base_edges, vertices=POOL))
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


def neighbours_by_vertex(ngraph):
    """``{vertex: neighbour set}`` of a snapshot, read from its CSR arrays,
    after checking that ``rows`` and ``ids`` agree with them."""
    indptr, indices = ngraph.indptr.tolist(), ngraph.indices.tolist()
    vertices = ngraph.vertices
    by_vertex = {}
    for vid in range(ngraph.num_vertices):
        row = indices[indptr[vid] : indptr[vid + 1]]
        assert sorted(ngraph.rows[vid]) == sorted(row)
        assert ngraph.ids[vertices[vid]] == vid
        by_vertex[vertices[vid]] = ngraph.translate(row)
    return by_vertex


def assert_same_state(kernel, reference, graph: Graph, k: int) -> None:
    """``kernel`` holds ``reference``'s (the dict kernel's) capped state."""
    core = reference.core_numbers()
    assert kernel.core_numbers() == core
    shell = [vertex for vertex, value in core.items() if value == k - 1]
    ranks, full = kernel.removal_ranks(), reference.removal_ranks()
    for component in shell_components(graph, shell):
        assert sorted(component, key=ranks.__getitem__) == sorted(
            component, key=full.__getitem__
        )
    lower = [vertex for vertex, value in core.items() if value < k - 1]
    if shell and lower:
        assert max(ranks[v] for v in lower) < min(ranks[v] for v in shell)
    for pruning in (True, False):
        assert kernel.candidate_anchors(k, pruning) == reference.candidate_anchors(
            k, pruning
        )
    for candidate in sorted(reference.candidate_anchors(k, False), key=tie_break_key):
        assert kernel.marginal_followers_with_region(
            k, candidate
        ) == reference.marginal_followers_with_region(k, candidate)


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
    vertices = sorted(graph.vertices(), key=tie_break_key)
    if scenario == "first":
        assert vertices[0] == FIRST
    store = maintainer.id_store()
    assert list(store.vertices) != vertices  # ids out of tie-break order

    gathered, interned = NumpyGraph.from_maintainer(maintainer), NumpyGraph.from_graph(graph)
    assert gathered.vertices is store.vertices and gathered.rows is store.adj
    expected = {vertex: set(graph.neighbors(vertex)) for vertex in vertices}
    assert neighbours_by_vertex(gathered) == neighbours_by_vertex(interned) == expected
    assert gathered.num_edges == interned.num_edges == graph.num_edges

    numpy = get_backend("numpy")
    from_ids = numpy.bound_to(maintainer).build_core_index(graph)
    from_graph = numpy.build_core_index(graph)
    reference = get_backend("dict").build_core_index(graph)
    kernels = (from_ids, from_graph, reference)
    anchors = set(data.draw(st.lists(st.sampled_from(vertices), max_size=3)))
    for kernel in kernels:
        kernel.refresh(set(anchors), k)
    assert_same_state(from_ids, reference, graph, k)
    assert_same_state(from_graph, reference, graph, k)
    # The numpy ranks read no id order, so the two builds agree exactly.
    assert from_ids.removal_ranks() == from_graph.removal_ranks()
    for vertex in data.draw(st.lists(st.sampled_from(vertices), max_size=3)):
        if vertex in anchors:
            continue
        anchors.add(vertex)
        touched = [kernel.commit_anchor(vertex, set(anchors), k) for kernel in kernels]
        assert touched[0] == touched[1] == touched[2]
        assert_same_state(from_ids, reference, graph, k)
        assert_same_state(from_graph, reference, graph, k)
        assert from_ids.removal_ranks() == from_graph.removal_ranks()


def test_an_index_build_keys_only_the_shell(monkeypatch):
    """Only the ``(k-1)``-shell is put in tie-break order, bare or bound."""
    keyed: List[Vertex] = []
    key = ordering.tie_break_key

    def counting_key(vertex):
        keyed.append(vertex)
        return key(vertex)

    # Patch the name wherever the library imported it.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, "tie_break_key", None) is key
        ):
            monkeypatch.setattr(module, "tie_break_key", counting_key)
    # A 4-clique (core 3), a triangle hung on it (core 2), a path (core 1)
    # and an isolated vertex; at k = 3 the shell is the triangle.
    clique = [0, 1, "c", (3,)]
    graph = Graph(
        edges=[(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
        + [("t", -5), (-5, (9, 9)), ((9, 9), "t"), ("t", 0), ("p", -5), ("q", "p")],
        vertices=["lonely"],
    )
    maintainer = CoreMaintainer(graph)
    numpy = get_backend("numpy")
    for backend in (numpy, numpy.bound_to(maintainer)):
        keyed.clear()
        kernel = backend.build_core_index(maintainer.graph)
        kernel.refresh({"lonely"}, 3)
        assert kernel.shell_vertices(2) == {"t", -5, (9, 9)}
        assert keyed and set(keyed) <= kernel.shell_vertices(2)
        # Anchoring "q" lifts "p" into the shell; the commit keys only the
        # shell components it touched.
        keyed.clear()
        kernel.commit_anchor("q", {"lonely", "q"}, 3)
        assert kernel.shell_vertices(2) == {"t", -5, (9, 9), "p"}
        assert keyed and set(keyed) <= kernel.shell_vertices(2)


def test_a_bound_kernel_keeps_its_vertex_set_when_the_maintainer_grows():
    maintainer = CoreMaintainer(Graph(edges=[(0, 1), (1, 2), (2, 0), (2, "x"), ("x", 3)]))
    bound = get_backend("numpy").bound_to(maintainer)
    queried, unread = (bound.build_core_index(maintainer.graph) for _ in range(2))
    for kernel in (queried, unread):
        kernel.refresh({"x"}, 2)
    core, ranks = dict(queried.core_numbers()), dict(queried.removal_ranks())
    # The new vertex takes the next maintainer id, past the snapshot's.
    maintainer.insert_edge("new", 3)
    assert maintainer.id_store().ids["new"] == len(core)
    assert unread.core_numbers() == core
    assert unread.removal_ranks() == ranks
    with pytest.raises(VertexNotFoundError):
        unread.core_of("new")


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
        lambda graph: built.append("graph") or from_graph(graph),
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
