"""Property tests: the two execution backends are observationally identical.

The numpy backend (:mod:`repro.backends`) re-implements every backend
kernel — peeling decomposition, follower computation, greedy selection —
over an interned snapshot, as numpy passes or id-list loops.
These tests pin the contract that makes ``backend="auto"`` safe: for *any*
graph (isolated vertices, non-integer and mixed-type vertex ids included) it
returns results identical to the dict reference, down to the removal order
and the instrumentation counters.  Each test runs dict vs numpy when numpy
is installed (skipped cleanly otherwise — the import gate is part of the
contract, and the no-numpy CI job exercises it; the id-list cascades are
also pinned without numpy in ``tests/test_followers.py``).

Incremental maintenance has one kernel on every backend; its tests here
run it against ``tests/conftest.py``'s reference kernel over the hashable
graph, and need no numpy.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.olak import OLAKAnchoredKCore
from repro.anchored.rcm import RCMAnchoredKCore
from repro.backends import numpy_available
from repro.cores.decomposition import (
    anchored_core_decomposition,
    core_decomposition,
    core_numbers,
)
from repro.cores.maintenance import CoreMaintainer
from repro.engine import StreamingAVTEngine
from repro.graph.dynamic import EdgeDelta
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph
from tests.conftest import reference_maintainer

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The non-reference backends, each compared against the dict reference.
#: numpy is skipped (not failed) on interpreters missing it.
OTHER_BACKENDS = [
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy is not installed"),
    ),
]

#: Vertex pools exercising the interner: contiguous ints, sparse ints,
#: strings, and a mixed-type universe (ints and strings together).
VERTEX_POOLS = (
    list(range(12)),
    [3, 7, 1000, 9999, -5, 0, 42, 18, 2, 61],
    ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"],
    [0, 1, 2, "x", "y", "z", 77, "alice", -3, "bob"],
)


@st.composite
def graphs(draw) -> Graph:
    """Random small graphs over a drawn vertex pool, isolated vertices kept."""
    pool = draw(st.sampled_from(VERTEX_POOLS))
    num_vertices = draw(st.integers(min_value=1, max_value=len(pool)))
    vertices = pool[:num_vertices]
    possible_edges = [
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]
    ]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), max_size=3 * num_vertices, unique=True)
        if possible_edges
        else st.just([])
    )
    # Only some vertices carry edges; the rest stay isolated on purpose.
    return Graph(edges=edges, vertices=vertices)


@st.composite
def graphs_with_anchors(draw):
    graph = draw(graphs())
    universe = sorted(graph.vertices(), key=repr)
    anchors = draw(st.lists(st.sampled_from(universe), max_size=3, unique=True))
    return graph, anchors


@st.composite
def graphs_with_k(draw):
    graph = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=4))
    return graph, k


def _backend_name(backend) -> str:
    """The backend name of a ``backend=`` parameter (string or instance)."""
    return backend if isinstance(backend, str) else backend.name


def _assert_results_equal(first, second):
    assert first.anchors == second.anchors
    assert first.followers == second.followers
    assert first.anchored_core_size == second.anchored_core_size
    assert first.stats.candidates_evaluated == second.stats.candidates_evaluated
    assert first.stats.visited_vertices == second.stats.visited_vertices


@pytest.mark.parametrize("other", OTHER_BACKENDS)
@SETTINGS
@given(graph_and_anchors=graphs_with_anchors())
def test_decomposition_identical_across_backends(other, graph_and_anchors):
    graph, anchors = graph_and_anchors
    dict_result = anchored_core_decomposition(graph, anchors, backend="dict")
    other_result = anchored_core_decomposition(graph, anchors, backend=other)
    assert dict(dict_result.core) == dict(other_result.core)
    assert dict_result.order == other_result.order
    assert dict_result.anchors == other_result.anchors


@pytest.mark.parametrize("other", OTHER_BACKENDS)
@SETTINGS
@given(graph_and_k=graphs_with_k())
def test_index_candidates_and_followers_identical(other, graph_and_k):
    graph, k = graph_and_k
    dict_index = AnchoredCoreIndex(graph, k, backend="dict")
    other_index = AnchoredCoreIndex(graph, k, backend=other)
    assert dict_index.backend == "dict"
    assert other_index.backend == _backend_name(other)
    assert dict(dict_index.core_numbers()) == dict(other_index.core_numbers())
    assert dict_index.candidate_anchors() == other_index.candidate_anchors()
    assert dict_index.candidate_anchors(order_pruning=False) == other_index.candidate_anchors(
        order_pruning=False
    )
    assert dict_index.all_non_core_vertices() == other_index.all_non_core_vertices()
    assert dict_index.plain_k_core() == other_index.plain_k_core()
    assert dict_index.shell() == other_index.shell()
    for candidate in sorted(dict_index.all_non_core_vertices(), key=repr):
        assert dict_index.marginal_followers(candidate) == other_index.marginal_followers(
            candidate
        )
        assert dict_index.marginal_followers(
            candidate, full_shell=True
        ) == other_index.marginal_followers(candidate, full_shell=True)
    assert dict_index.visited_vertices == other_index.visited_vertices
    assert dict_index.candidates_evaluated == other_index.candidates_evaluated


@pytest.mark.parametrize("other", OTHER_BACKENDS)
@SETTINGS
@given(graph_and_k=graphs_with_k(), budget=st.integers(min_value=0, max_value=3))
def test_greedy_identical_across_backends(other, graph_and_k, budget):
    graph, k = graph_and_k
    _assert_results_equal(
        GreedyAnchoredKCore(graph, k, budget, backend="dict").select(),
        GreedyAnchoredKCore(graph, k, budget, backend=other).select(),
    )


@pytest.mark.parametrize("other", OTHER_BACKENDS)
@SETTINGS
@given(graph_and_k=graphs_with_k(), budget=st.integers(min_value=0, max_value=3))
def test_olak_identical_across_backends(other, graph_and_k, budget):
    graph, k = graph_and_k
    _assert_results_equal(
        OLAKAnchoredKCore(graph, k, budget, backend="dict").select(),
        OLAKAnchoredKCore(graph, k, budget, backend=other).select(),
    )


@pytest.mark.parametrize("other", OTHER_BACKENDS)
@SETTINGS
@given(graph_and_k=graphs_with_k(), budget=st.integers(min_value=0, max_value=3))
def test_rcm_identical_across_backends(other, graph_and_k, budget):
    graph, k = graph_and_k
    _assert_results_equal(
        RCMAnchoredKCore(graph, k, budget, backend="dict").select(),
        RCMAnchoredKCore(graph, k, budget, backend=other).select(),
    )


@pytest.mark.parametrize("other", OTHER_BACKENDS)
def test_backends_identical_on_a_graph_large_enough_for_vectorised_waves(other):
    """The graphs above have at most 12 vertices, so numpy's peel frontiers
    stay under its scalar-drain cutoff and its vectorised waves never run
    there; a 3k-vertex power-law graph runs them."""
    graph = chung_lu_graph(3000, 9000, seed=42)
    reference = core_decomposition(graph, backend="dict")
    decomposition = core_decomposition(graph, backend=other)
    assert dict(decomposition.core) == dict(reference.core)
    assert decomposition.order == reference.order
    _assert_results_equal(
        GreedyAnchoredKCore(graph, 4, 2, backend="dict").select(),
        GreedyAnchoredKCore(graph, 4, 2, backend=other).select(),
    )


@st.composite
def edit_scripts(draw):
    """A starting graph plus a sequence of edge insertions/removals."""
    graph = draw(graphs())
    pool = sorted(graph.vertices(), key=repr)
    operations = []
    if len(pool) >= 2:
        pairs = [(u, v) for i, u in enumerate(pool) for v in pool[i + 1 :]]
        operations = draw(
            st.lists(
                st.tuples(st.booleans(), st.sampled_from(pairs)),
                max_size=25,
            )
        )
    return graph, operations


def _assert_views_match_a_fresh_peel(maintainer: CoreMaintainer) -> None:
    """Every view of the maintained cores answers as the dict backend's peel."""
    expected = core_numbers(maintainer.graph, backend="dict")
    assert maintainer.core_numbers() == expected
    for vertex, value in expected.items():
        assert maintainer.core(vertex) == value
    for k in range(max(expected.values(), default=0) + 2):
        assert maintainer.k_core_vertices(k) == {
            vertex for vertex, value in expected.items() if value >= k
        }
        assert maintainer.shell_vertices(k) == {
            vertex for vertex, value in expected.items() if value == k
        }


@SETTINGS
@given(script=edit_scripts())
def test_maintenance_matches_the_reference_kernel(script):
    """Edge by edge, the single-edge updates return what the reference
    kernel's return, and a one-edge delta changes and visits what the
    reference kernel's does."""
    graph, operations = script
    maintainer = CoreMaintainer(graph)
    reference = reference_maintainer(graph)
    by_delta = CoreMaintainer(graph)
    reference_by_delta = reference_maintainer(graph)
    for insert, (u, v) in operations:
        if insert:
            assert maintainer.insert_edge(u, v) == reference.insert_edge(u, v)
            delta = EdgeDelta.from_iterables(inserted=[(u, v)])
        else:
            assert maintainer.remove_edge(u, v) == reference.remove_edge(u, v)
            delta = EdgeDelta.from_iterables(removed=[(u, v)])
        effect = by_delta.apply_delta(delta)
        reference_effect = reference_by_delta.apply_delta(delta)
        for attribute in ("increased", "decreased", "visited"):
            assert getattr(effect, attribute) == getattr(reference_effect, attribute)
    for checked in (maintainer, by_delta):
        assert checked.core_numbers() == reference.core_numbers()
        checked.validate()
        _assert_views_match_a_fresh_peel(checked)


@SETTINGS
@given(script=edit_scripts(), k=st.integers(min_value=1, max_value=4))
def test_apply_delta_matches_the_reference_kernel(script, k):
    graph, operations = script
    inserted = [edge for insert, edge in operations if insert]
    removed = [edge for insert, edge in operations if not insert]
    delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
    maintainer = CoreMaintainer(graph)
    reference = reference_maintainer(graph)
    effect = maintainer.apply_delta(delta, k=k)
    reference_effect = reference.apply_delta(delta, k=k)
    for attribute in (
        "increased",
        "decreased",
        "insertion_affected",
        "deletion_affected",
        "insertion_touched",
        "deletion_touched",
        "pre_update_core",
        "visited",
    ):
        assert getattr(effect, attribute) == getattr(reference_effect, attribute), attribute
    assert maintainer.core_numbers() == reference.core_numbers()
    maintainer.validate()
    _assert_views_match_a_fresh_peel(maintainer)


# ---------------------------------------------------------------------------
# Checkpoint round-trips (deterministic, parametrised over backends)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", OTHER_BACKENDS + ["dict"])
def test_engine_checkpoint_round_trip_per_backend(backend, tmp_path):
    """The full engine state survives checkpoint/restore on every backend."""
    graph = Graph(
        edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), ("a", 0)],
        vertices=[0, 1, 2, 3, 4, 5, "a", "isolated"],
    )
    engine = StreamingAVTEngine(graph, backend=backend, batch_size=None)
    first = engine.query(k=2, budget=1)
    engine.ingest_insert("a", 1)
    engine.ingest_remove(4, 5)
    engine.flush()
    second = engine.query(k=2, budget=1)

    path = tmp_path / f"engine-{backend}.ckpt"
    engine.checkpoint(path)
    restored = StreamingAVTEngine.restore(path)
    assert restored.core_numbers() == engine.core_numbers()
    assert restored.graph_version == engine.graph_version
    replayed = restored.query(k=2, budget=1)
    assert replayed.anchors == second.anchors
    assert replayed.followers == second.followers
    assert first.k == 2  # first answer retained just to pin the cold path ran
