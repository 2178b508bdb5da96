"""The numpy snapshot of a maintained graph, in the maintainer's own ids.

An exact solve that holds a :class:`~repro.cores.maintenance.CoreMaintainer`
(an engine's cold query, IncAVT's first snapshot and its restarts) runs on
the backend :meth:`~repro.backends.ExecutionBackend.bound_to` returns.  On
numpy, that backend builds the index's snapshot from the maintainer's id
space: its ids, vertices and adjacency sets, with no sort and no interning,
and the index reads the maintainer's core numbers instead of peeling.  A
bare graph's snapshot takes the graph in its iteration order and its own
neighbour sets, and its index derives the capped cores from scratch with
the level-limited peel, which translates only the rows it removes.  Either
way the CSR holds only the rows of the ids whose core is below ``k``.
Neither id order is the tie-break order, and the two differ, so the
kernels key only the vertices they order.  These tests pin:

* after ``refresh`` with no anchors and with a drawn non-empty anchor set,
  and after each of a few ``commit_anchor`` calls, both numpy kernels hold
  the dict kernel's core numbers and plain k-core, candidates under both
  pruning modes, ``(gained, visited, region)`` and the whole-shell
  followers for every candidate, touched sets, and removal ranks in the
  dict kernel's (full-peel) order within each ``(k-1)``-shell component;
* a refresh with no anchors over a maintained graph neither peels nor runs
  the k-core cascade, a bare one runs no k-core cascade, and the CSR of
  either holds exactly the rows below ``k``, while ``rows[vid]`` still
  reads the whole row of an id outside it;
* neither build flattens a row;
* an index build keys (:func:`~repro.ordering.tie_break_key`) no vertex
  outside the ``(k-1)``-shell;
* a bound kernel keeps the vertex set it was built with when its
  maintainer gains a vertex.

The graphs mix vertex types (ints, negative ints, strings, tuples), and
every maintainer's ids are out of tie-break order: it gained vertices
through ``insert_edge`` and ``apply_delta``, or gained one that sorts
before every other vertex, or was refreshed (``refresh_from_graph``) after
its graph was edited directly, isolating vertices and gaining them.  In the
first two scenarios the maintained cores a bound index reads come from
those maintenance edits, not from the set-up's bucket cascade.
"""

from __future__ import annotations

import sys
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ordering
from repro.backends import get_backend, numpy_available
from repro.cores.decomposition import core_numbers
from repro.cores.maintenance import CoreMaintainer
from repro.errors import VertexNotFoundError
from repro.graph.dynamic import EdgeDelta
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph, Vertex
from repro.ordering import edge_tie_break_key, tie_break_key
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
        # Mutated directly and refreshed, as IncAVT's restart does; the
        # maintained graph keeps its vertices, so these three are isolated.
        graph = maintainer.graph
        for vertex in ("b", 3, (1, 0)):
            graph.remove_edges([(vertex, w) for w in list(graph.neighbors(vertex))])
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


def assert_same_state(kernel, reference, graph: Graph, k: int) -> None:
    """``kernel`` holds ``reference``'s (the dict kernel's) capped state."""
    core = reference.core_numbers()
    assert kernel.core_numbers() == core
    assert kernel.plain_k_core(k) == reference.plain_k_core(k)
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
        assert kernel.marginal_followers(k, candidate, True) == reference.marginal_followers(
            k, candidate, True
        )


def built_snapshots(monkeypatch, build: str) -> List:
    """Every snapshot ``NumpyGraph.<build>`` makes from now on, in order."""
    from repro.backends.numpy_backend import NumpyGraph

    snapshots: List = []
    original = getattr(NumpyGraph, build)
    monkeypatch.setattr(
        NumpyGraph, build, lambda source: snapshots.append(original(source)) or snapshots[-1]
    )
    return snapshots


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
    maintainer = maintained(scenario, base_edges, later_edges)
    graph = maintainer.graph
    vertices = sorted(graph.vertices(), key=tie_break_key)
    if scenario == "first":
        assert vertices[0] == FIRST
    assert list(maintainer.id_store().vertices) != vertices  # ids out of tie-break order

    numpy = get_backend("numpy")
    drawn = set(data.draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=3)))
    # No library caller refreshes a bound index with anchors, which takes
    # the level-limited peel over the rows below k; the public API can.
    for start in (set(), drawn):
        from_ids = numpy.bound_to(maintainer).build_core_index(graph)
        from_graph = numpy.build_core_index(graph)
        reference = get_backend("dict").build_core_index(graph)
        kernels = (from_ids, from_graph, reference)
        anchors = set(start)
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


def reference_states(graph, ks):
    """``{k: (capped core numbers, plain k-core)}`` of the dict kernel."""
    reference = get_backend("dict")
    states = {}
    for k in ks:
        kernel = reference.build_core_index(graph)
        kernel.refresh(set(), k)
        states[k] = (dict(kernel.core_numbers()), kernel.plain_k_core(k))
    return states


def forbid_the_k_core_cascade(monkeypatch) -> None:
    """Make the one k-core cascade raise in every ``repro`` module that
    binds it, so any path that reaches it fails."""
    import repro  # noqa: F401  (loads every binder but the lazy dict backend)
    import repro.backends.dict_backend  # noqa: F401
    from repro.cores.decomposition import k_core_cascade

    def boom(*args, **kwargs):
        raise AssertionError("ran the k-core cascade")

    binders = [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(module, "k_core_cascade", None) is k_core_cascade
    ]
    assert repro.cores.decomposition in binders
    for module in binders:
        monkeypatch.setattr(module, "k_core_cascade", boom)


def test_a_bound_refresh_reads_the_maintained_cores(monkeypatch):
    """With no anchors a bound index neither peels nor runs the k-core
    cascade, and its CSR holds exactly the rows of the ids below ``k``."""
    from repro.backends import numpy_backend

    maintainer = CoreMaintainer(chung_lu_graph(300, 900, skew=1.2, seed=3))
    graph = maintainer.graph
    # Cores from maintenance edits, not only from the set-up cascade.
    edges = sorted(graph.edges(), key=edge_tie_break_key)
    maintainer.apply_delta(
        EdgeDelta.from_iterables(
            inserted=[(0, 1), (0, 2), (1, 2), (0, "new")], removed=edges[::9]
        )
    )
    store = maintainer.id_store()
    ks = range(1, max(store.icore) + 2)
    expected = reference_states(graph, ks)

    def boom(*args, **kwargs):
        raise AssertionError("derived what the maintainer already holds")

    monkeypatch.setattr(numpy_backend, "_wave_cores", boom)
    forbid_the_k_core_cascade(monkeypatch)
    snapshots = built_snapshots(monkeypatch, "from_maintainer")
    numpy = get_backend("numpy").bound_to(maintainer)
    for k in ks:
        kernel = numpy.build_core_index(maintainer.graph)
        kernel.refresh(set(), k)
        core, plain = expected[k]
        assert kernel.core_numbers() == core
        assert kernel.plain_k_core(k) == plain == set(maintainer.k_core_vertices(k))
        ngraph = snapshots[-1]
        # Nothing interned or copied: the snapshot reads the maintainer's own stores.
        assert ngraph.vertices is store.vertices and ngraph.ids is store.ids
        assert ngraph.rows is store.adj and ngraph.store == store
        indptr, indices = ngraph.indptr.tolist(), ngraph.indices.tolist()
        assert ngraph.num_vertices == len(store.vertices) == graph.num_vertices
        below = 0
        for vid, vertex in enumerate(store.vertices):
            row = indices[indptr[vid] : indptr[vid + 1]]
            if store.icore[vid] < k:
                below += 1
                assert sorted(row) == sorted(store.adj[vid])
                assert ngraph.translate(row) == graph.neighbors(vertex)
            else:
                assert row == []
        assert 0 < below <= ngraph.num_vertices


def test_a_bare_refresh_flattens_only_the_rows_below_k(monkeypatch):
    """With no anchors a bare index derives ``min(core, k)`` from scratch
    and runs no k-core cascade, and its CSR holds exactly the rows of the
    ids below ``k``, each whole, and no other row."""
    graph = chung_lu_graph(300, 900, skew=1.2, seed=3)
    # Vertices of other types, so ids, vertices and tie-break order differ.
    graph.add_edges([("a", 0), ("a", 1), ("a", (2,)), ((2,), 0), (-4, "a")])
    graph.add_vertex("lonely")
    top = max(core_numbers(graph).values())
    ks = range(1, top + 2)
    expected = reference_states(graph, ks)
    forbid_the_k_core_cascade(monkeypatch)
    snapshots = built_snapshots(monkeypatch, "from_graph")
    numpy = get_backend("numpy")
    for k in ks:
        kernel = numpy.build_core_index(graph)
        kernel.refresh(set(), k)
        core, plain = expected[k]
        assert kernel.core_numbers() == core
        assert kernel.plain_k_core(k) == plain
        ngraph = snapshots[-1]
        indptr, indices = ngraph.indptr.tolist(), ngraph.indices.tolist()
        assert ngraph.rows.indptr == indptr and ngraph.rows.indices == indices
        below = 0
        for vid, vertex in enumerate(ngraph.vertices):
            row = indices[indptr[vid] : indptr[vid + 1]]
            if core[vertex] < k:
                below += 1
                assert len(row) == graph.degree(vertex)
                assert ngraph.translate(row) == graph.neighbors(vertex)
            else:
                assert row == []
        assert 0 < below <= ngraph.num_vertices
    assert below == ngraph.num_vertices


def test_a_commit_reads_the_whole_row_of_an_id_outside_the_csr(monkeypatch):
    """Committing a vertex already in the k-core reads its row, which no
    CSR of the rows below ``k`` holds: the bare snapshot's ``rows``
    translates it from the graph, the bound one's is the maintainer's set.
    The commit reaches the shell only through that row."""
    snapshots = built_snapshots(monkeypatch, "from_graph")
    # A 4-clique (core 3), a triangle hung on its member 0 (core 2) and a
    # path (core 1); at k = 3 the clique is the k-core, the triangle the
    # shell.
    clique = [0, 1, "c", (3,)]
    graph = Graph(
        edges=[(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]]
        + [("t", -5), (-5, (9, 9)), ((9, 9), "t"), ("t", 0), ("p", -5), ("q", "p")]
    )
    maintainer = CoreMaintainer(graph)
    numpy = get_backend("numpy")
    kernels = (
        numpy.bound_to(maintainer).build_core_index(graph),
        numpy.build_core_index(graph),
        get_backend("dict").build_core_index(graph),
    )
    for kernel in kernels:
        kernel.refresh(set(), 3)
    bare = snapshots[-1]
    assert bare.indices[bare.indptr[bare.id_of(0)] : bare.indptr[bare.id_of(0) + 1]].size == 0
    triangle = {"t", -5, (9, 9)}
    assert kernels[1].shell_vertices(2) == triangle
    before = kernels[1].removal_ranks()
    touched = [kernel.commit_anchor(0, {0}, 3) for kernel in kernels]
    assert touched[0] == touched[1] == touched[2] == {0}
    assert kernels[0].removal_ranks() == kernels[1].removal_ranks()
    # The triangle was re-ranked, above every earlier rank.
    after = kernels[1].removal_ranks()
    assert min(after[v] for v in triangle) > max(before.values())
    for kernel in kernels[:2]:
        assert_same_state(kernel, kernels[2], graph, 3)


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
    """A bound backend takes the maintained graph's snapshot from the
    maintainer's ids and any other graph's from the graph, and neither build
    flattens a row: the index's refresh does, once it knows its ``k``."""
    from_ids = built_snapshots(monkeypatch, "from_maintainer")
    from_graph = built_snapshots(monkeypatch, "from_graph")
    maintainer = CoreMaintainer(Graph(edges=[(0, 1), (1, 2), (2, 0), (2, "x")]))
    numpy = get_backend("numpy")
    bound = numpy.bound_to(maintainer)
    assert bound.name == "numpy"
    bound.build_core_index(maintainer.graph)
    assert (len(from_ids), len(from_graph)) == (1, 0)
    bound.build_core_index(maintainer.graph.copy())
    numpy.build_core_index(maintainer.graph)
    assert (len(from_ids), len(from_graph)) == (1, 2)
    for ngraph in from_ids + from_graph:
        assert ngraph.indptr.tolist() == [0] * 5 and ngraph.indices.size == 0


def test_backends_without_a_snapshot_bind_to_themselves():
    maintainer = CoreMaintainer(Graph(edges=[(0, 1)]))
    dict_backend = get_backend("dict")
    assert dict_backend.bound_to(maintainer) is dict_backend
