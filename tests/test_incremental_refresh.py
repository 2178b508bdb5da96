"""Property tests for the capped index build and the delta-refresh subsystem.

Two referees keep the capped and incremental paths honest:

* **Kernel-level**: right after construction, and after any random anchor
  sequence driven purely through
  :meth:`~repro.anchored.anchored_core.AnchoredCoreIndex.commit_anchor`,
  the index must meet the capped contract against a full exact anchored
  peel (:func:`~repro.cores.decomposition.anchored_core_decomposition` on
  the dict backend, which builds no index), on both backends:
  core numbers equal to ``min(full peel, k)`` with anchors at infinity,
  each connected component of the ``(k-1)``-shell's subgraph in the full
  peel's relative order, the shell after every lower vertex, and candidate
  sets and shell queries equal to those derived from the full peel; and
  the returned touched set must be exactly the core-number diff.
* **Solver-level**: the memoized Greedy must select bit-identical anchors
  and followers and report bit-identical instrumentation
  (``candidates_evaluated``, ``visited_vertices``) as the index-free
  reference Greedy (``tests/conftest.py::reference_greedy``, which re-runs
  every evaluation every round on a full heap peel), on random graphs
  across every backend — while actually recomputing fewer cascades.

The same vertex-pool strategies as ``tests/test_backend_equivalence.py`` are
used so the interner paths (sparse ints, strings, mixed types) stay covered.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import numpy_available
from repro.cores.decomposition import ANCHOR_CORE, anchored_core_decomposition
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph
from repro.ordering import tie_break_key

from tests.conftest import reference_greedy, shell_components

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = [
    "dict",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy is not installed"),
    ),
]

#: The snapshot backend where it can run; dict otherwise.
SNAPSHOT_BACKEND = "numpy" if numpy_available() else "dict"

VERTEX_POOLS = (
    list(range(12)),
    [3, 7, 1000, 9999, -5, 0, 42, 18, 2, 61],
    ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"],
    [0, 1, 2, "x", "y", "z", 77, "alice", -3, "bob"],
)


@st.composite
def graphs(draw) -> Graph:
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
    return Graph(edges=edges, vertices=vertices)


@st.composite
def commit_scenarios(draw):
    """A graph, a degree constraint and a sequence of anchors to commit."""
    graph = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=4))
    universe = sorted(graph.vertices(), key=tie_break_key)
    anchors = draw(st.lists(st.sampled_from(universe), max_size=4, unique=True))
    return graph, k, anchors


def _assert_capped_state(index: AnchoredCoreIndex, graph: Graph, anchors, k: int):
    """The capped contract: ``index`` vs a full exact anchored peel of
    ``graph`` with ``anchors`` (dict backend, no index involved)."""
    decomposition = anchored_core_decomposition(graph, anchors)
    full_core = decomposition.core
    full_rank = {vertex: position for position, vertex in enumerate(decomposition.order)}
    assert dict(index.core_numbers()) == {
        v: ANCHOR_CORE if v in decomposition.anchors else min(value, k)
        for v, value in full_core.items()
    }
    ranks = index.kernel.removal_ranks()
    # Each component of the shell's subgraph, in full-peel order, must rank
    # strictly increasing.
    shell = [v for v in decomposition.order if full_core[v] == k - 1]
    for component in shell_components(graph, shell):
        component_ranks = [ranks[v] for v in shell if v in component]
        assert all(a < b for a, b in zip(component_ranks, component_ranks[1:]))
    lower = [v for v, value in full_core.items() if value < k - 1]
    if shell and lower:
        assert max(ranks[v] for v in lower) < min(ranks[v] for v in shell)
    for pruning in (True, False):
        expected = {
            u
            for u in graph.vertices()
            if full_core[u] < k
            and any(
                full_core[v] == k - 1 and (not pruning or full_rank[v] > full_rank[u])
                for v in graph.neighbors(u)
            )
        }
        assert index.candidate_anchors(order_pruning=pruning) == expected
    assert index.all_non_core_vertices() == {
        v for v, value in full_core.items() if value < k
    }
    assert index.anchored_core_size() == sum(1 for value in full_core.values() if value >= k)
    assert index.shell() == set(shell)


@st.composite
def build_scenarios(draw):
    """A graph, initial anchors and a ``k`` that includes the extremes."""
    graph = draw(graphs())
    max_degree = max((graph.degree(v) for v in graph.vertices()), default=0)
    k = draw(
        st.one_of(
            st.integers(min_value=1, max_value=5),
            st.sampled_from([max(max_degree, 1), max_degree + 1, 10**9]),
        )
    )
    universe = sorted(graph.vertices(), key=tie_break_key)
    anchors = draw(st.lists(st.sampled_from(universe), max_size=3, unique=True))
    return graph, k, anchors


# The path 0-1-2 is the 1-shell and the isolated 3 the lower 0-shell, so a
# missing shell order, a missing rank offset and a level loop that stops at
# k - 1 all break this build; the second example repeats it with an anchor.
PATH_WITH_ISOLATED = Graph(edges=[(0, 1), (1, 2)], vertices=[0, 1, 2, 3])
TWO_EDGES = Graph(edges=[(0, 1), (2, 3)], vertices=range(4))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenario=build_scenarios())
@example(scenario=(PATH_WITH_ISOLATED, 2, []))
@example(scenario=(Graph(edges=[(0, 1), (1, 2), (2, 4)], vertices=range(5)), 2, [4]))
def test_capped_build_matches_the_exact_peel(backend, scenario):
    """Right after construction the index holds the capped state."""
    graph, k, anchors = scenario
    index = AnchoredCoreIndex(graph, k, anchors=anchors, backend=backend)
    _assert_capped_state(index, graph, anchors, k)


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios())
# Anchoring the end of the path 0-1-2 re-orders the rest of the 1-shell
# (2 now peels before 1), and the isolated 3 is a lower shell that the
# re-ordered ranks must stay above.
@example(scenario=(PATH_WITH_ISOLATED, 2, [0]))
# Two 1-shell components: on numpy, anchoring 0 re-ranks only {1}, above
# the ranks 2 and 3 keep, so the whole shell is out of full-peel order.
@example(scenario=(TWO_EDGES, 2, [0]))
def test_commit_anchor_matches_full_refresh(backend, scenario):
    """After every commit the capped state matches the full exact peel."""
    graph, k, anchors = scenario
    incremental = AnchoredCoreIndex(graph, k, backend=backend)
    committed = []
    for anchor in anchors:
        before = dict(incremental.core_numbers())
        touched = incremental.commit_anchor(anchor)
        committed.append(anchor)
        _assert_capped_state(incremental, graph, committed, k)
        # The touched set is the exact core-number diff.
        after = dict(incremental.core_numbers())
        expected = {
            vertex for vertex, value in after.items() if before[vertex] != value
        }
        assert touched == frozenset(expected)


@pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")
@SETTINGS
@given(scenario=commit_scenarios())
# Anchoring 0 touches the component {0, 1} only: 2 and 3 keep ranks 6 and 7.
@example(scenario=(TWO_EDGES, 2, [0]))
def test_a_numpy_commit_keeps_the_ranks_of_untouched_components(scenario):
    """A numpy commit re-ranks only the shell components that contain or
    neighbour a touched vertex."""
    graph, k, anchors = scenario
    index = AnchoredCoreIndex(graph, k, backend="numpy")
    for anchor in anchors:
        before = dict(index.kernel.removal_ranks())
        touched = index.commit_anchor(anchor)
        after = index.kernel.removal_ranks()
        reached = set(touched).union(*(graph.neighbors(v) for v in touched))
        for component in shell_components(graph, index.shell()):
            if not component & reached:
                assert {v: after[v] for v in component} == {
                    v: before[v] for v in component
                }


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios())
def test_commit_existing_anchor_is_noop(backend, scenario):
    graph, k, anchors = scenario
    if not anchors:
        return
    index = AnchoredCoreIndex(graph, k, backend=backend)
    index.commit_anchor(anchors[0])
    before = dict(index.core_numbers())
    assert index.commit_anchor(anchors[0]) == frozenset()
    assert dict(index.core_numbers()) == before


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios())
def test_shell_histogram_queries_match_core_numbers(backend, scenario):
    """count/shell queries agree with the core map after incremental commits."""
    graph, k, anchors = scenario
    index = AnchoredCoreIndex(graph, k, backend=backend)
    for anchor in anchors:
        index.commit_anchor(anchor)
    core = dict(index.core_numbers())
    kernel = index.kernel
    for level in range(0, 6):
        assert kernel.count_core_at_least(level) == sum(
            1 for value in core.values() if value >= level
        )
        assert kernel.shell_vertices(level) == {
            vertex for vertex, value in core.items() if value == level
        }
        assert kernel.vertices_with_core_at_least(level) == {
            vertex for vertex, value in core.items() if value >= level
        }


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios(), budget=st.integers(min_value=0, max_value=4))
def test_greedy_memoized_equals_full_recompute(backend, scenario, budget):
    """Memoized Greedy == the reference Greedy that re-runs every evaluation
    every round: anchors, followers, size and both paper counters."""
    graph, k, _ = scenario
    memoized = GreedyAnchoredKCore(graph, k, budget, backend=backend).select()
    anchors, followers, size, evaluated, visited = reference_greedy(graph, k, budget)
    assert memoized.anchors == anchors
    assert memoized.followers == followers
    assert memoized.anchored_core_size == size
    assert memoized.stats.candidates_evaluated == evaluated
    assert memoized.stats.visited_vertices == visited
    # Every evaluation is either a cascade or a cache hit.
    assert (
        memoized.stats.candidates_recomputed + memoized.stats.cache_hits
        == memoized.stats.candidates_evaluated
    )


def test_memoization_avoids_cascades_on_a_real_instance():
    """On a non-trivial graph most evaluations come from the gain cache."""
    graph = chung_lu_graph(200, 600, seed=11)
    result = GreedyAnchoredKCore(graph, 4, 6, backend=SNAPSHOT_BACKEND).select()
    stats = result.stats
    assert stats.iterations > 1
    assert stats.cache_hits > stats.candidates_recomputed
    assert len(stats.commit_seconds) == stats.iterations
    # And the selection and counters are still exactly the reference's.
    anchors, followers, size, evaluated, visited = reference_greedy(graph, 4, 6)
    assert result.anchors == anchors
    assert result.followers == followers
    assert result.anchored_core_size == size
    assert stats.candidates_evaluated == evaluated
    assert stats.visited_vertices == visited
