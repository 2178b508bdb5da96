"""Property-based tests (hypothesis) for the core invariants of the library.

These are the guarantees the rest of the system is built on:

* core decomposition agrees with networkx on arbitrary graphs;
* the removal order of a plain or anchored decomposition (the static
  K-order of Definition 5) is always a legal peel;
* incremental core maintenance always agrees with recomputation from scratch;
* the fast follower computation agrees with the exact deletion cascade;
* anchored k-cores are monotone in the anchor set and contain the plain k-core.
"""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anchored.followers import (
    anchored_k_core,
    compute_followers,
    follower_gain,
    full_shell_followers,
    marginal_followers,
)
from repro.cores.decomposition import (
    anchored_core_decomposition,
    core_decomposition,
    core_numbers,
    k_core,
)
from repro.cores.maintenance import CoreMaintainer
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph

from tests.conftest import to_networkx

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
MAX_VERTICES = 14


@st.composite
def graphs(draw, min_vertices: int = 2, max_vertices: int = MAX_VERTICES) -> Graph:
    """Random small simple graphs with a possibly non-contiguous vertex set."""
    num_vertices = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    vertices = list(range(num_vertices))
    possible_edges = [(u, v) for u in vertices for v in vertices if u < v]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), max_size=3 * num_vertices, unique=True)
        if possible_edges
        else st.just([])
    )
    return Graph(edges=edges, vertices=vertices)


@st.composite
def graphs_with_vertex(draw):
    """A graph plus one of its vertices (used for per-vertex properties)."""
    graph = draw(graphs())
    vertex = draw(st.sampled_from(sorted(graph.vertices())))
    return graph, vertex


@st.composite
def graphs_with_anchors(draw):
    """A graph plus an anchor set of up to three of its vertices."""
    graph = draw(graphs())
    vertices = sorted(graph.vertices())
    anchors = draw(st.lists(st.sampled_from(vertices), max_size=3, unique=True))
    return graph, anchors


@st.composite
def graphs_with_edits(draw):
    """A graph plus a sequence of edge insertions / deletions to replay."""
    graph = draw(graphs())
    vertices = sorted(graph.vertices())
    num_edits = draw(st.integers(min_value=1, max_value=20))
    edits = []
    for _ in range(num_edits):
        u = draw(st.sampled_from(vertices))
        v = draw(st.sampled_from(vertices))
        edits.append((u, v))
    return graph, edits


SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# Core decomposition
# ---------------------------------------------------------------------------
@SETTINGS
@given(graphs())
def test_core_numbers_match_networkx(graph):
    assert core_numbers(graph) == nx.core_number(to_networkx(graph))


@SETTINGS
@given(graphs(), st.integers(min_value=0, max_value=6))
def test_k_core_matches_networkx(graph, k):
    expected = set(nx.k_core(to_networkx(graph), k).nodes())
    assert k_core(graph, k) == expected


@SETTINGS
@given(graphs_with_anchors())
def test_removal_order_is_a_legal_peel(data):
    """The order lists every vertex once, by non-decreasing core number,
    and when a vertex ``v`` is removed at most ``core(v)`` of its neighbours
    are still present.  Anchors are never removed, so they are skipped."""
    graph, anchors = data
    for decomposition in (
        core_decomposition(graph),
        anchored_core_decomposition(graph, anchors),
    ):
        core = decomposition.core
        order = decomposition.order
        assert sorted(order) == sorted(graph.vertices())
        values = [core[vertex] for vertex in order]
        assert values == sorted(values)
        position = {vertex: rank for rank, vertex in enumerate(order)}
        for rank, vertex in enumerate(order):
            if vertex in decomposition.anchors:
                continue
            later = sum(1 for neighbour in graph.neighbors(vertex) if position[neighbour] > rank)
            assert later <= core[vertex]


@SETTINGS
@given(graphs())
def test_core_number_bounded_by_degree(graph):
    core = core_numbers(graph)
    for vertex, value in core.items():
        assert 0 <= value <= graph.degree(vertex)


# ---------------------------------------------------------------------------
# Incremental maintenance
# ---------------------------------------------------------------------------
@SETTINGS
@given(graphs_with_edits())
def test_incremental_maintenance_matches_recomputation(data):
    graph, edits = data
    maintainer = CoreMaintainer(graph)
    for u, v in edits:
        if u == v:
            continue
        if maintainer.graph.has_edge(u, v):
            maintainer.remove_edge(u, v)
        else:
            maintainer.insert_edge(u, v)
        assert maintainer.core_numbers() == core_numbers(maintainer.graph)


@SETTINGS
@given(graphs_with_edits(), st.integers(min_value=1, max_value=4))
def test_apply_delta_matches_recomputation_and_reports_shell_pool(data, k):
    graph, edits = data
    maintainer = CoreMaintainer(graph)
    inserted = [edge for edge in edits if not graph.has_edge(*edge) and edge[0] != edge[1]]
    removed = [edge for edge in edits if graph.has_edge(*edge)]
    delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
    effect = maintainer.apply_delta(delta, k=k)
    assert maintainer.core_numbers() == core_numbers(maintainer.graph)
    for vertex in effect.affected:
        assert maintainer.core(vertex) == k - 1


# ---------------------------------------------------------------------------
# Followers and anchored cores
# ---------------------------------------------------------------------------
@SETTINGS
@given(graphs_with_vertex(), st.integers(min_value=1, max_value=5))
def test_fast_follower_computation_is_exact(data, k):
    graph, vertex = data
    core = core_numbers(graph)
    if core[vertex] >= k:
        return
    fast = marginal_followers(graph, k, vertex, core)
    shell = full_shell_followers(graph, k, vertex, core)
    exact = follower_gain(graph, k, [], vertex)
    assert fast == shell == exact


@SETTINGS
@given(graphs(), st.integers(min_value=1, max_value=5))
def test_anchored_core_contains_plain_core_and_anchors(graph, k):
    anchors = sorted(graph.vertices())[:2]
    anchored = anchored_k_core(graph, k, anchors)
    assert k_core(graph, k) <= anchored
    assert set(anchors) <= anchored


@SETTINGS
@given(graphs(), st.integers(min_value=1, max_value=4))
def test_anchored_core_is_monotone_in_anchor_set(graph, k):
    vertices = sorted(graph.vertices())
    small = anchored_k_core(graph, k, vertices[:1])
    large = anchored_k_core(graph, k, vertices[:3])
    assert small <= large


@SETTINGS
@given(graphs(), st.integers(min_value=1, max_value=4))
def test_followers_have_degree_at_least_k_in_anchored_core(graph, k):
    anchors = sorted(graph.vertices())[:2]
    anchored = anchored_k_core(graph, k, anchors)
    followers = compute_followers(graph, k, anchors)
    for follower in followers:
        inside = sum(1 for n in graph.neighbors(follower) if n in anchored)
        assert inside >= k


@SETTINGS
@given(graphs(), st.integers(min_value=2, max_value=4))
def test_single_anchor_followers_sit_in_the_k_minus_1_shell(graph, k):
    core = core_numbers(graph)
    for vertex in sorted(graph.vertices())[:4]:
        if core[vertex] >= k:
            continue
        for follower in follower_gain(graph, k, [], vertex):
            assert core[follower] == k - 1


@SETTINGS
@given(graphs(max_vertices=10), st.integers(min_value=1, max_value=3))
def test_exact_k2_solver_matches_brute_force(graph, budget):
    from repro.anchored.bruteforce import BruteForceAnchoredKCore
    from repro.anchored.exact_small_k import solve_k2

    exact = solve_k2(graph, budget)
    brute = BruteForceAnchoredKCore(graph, 2, budget, max_combinations=10_000_000).select()
    assert exact.num_followers == brute.num_followers
