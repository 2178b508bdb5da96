"""Unit tests for the static anchored k-core solvers (Greedy, OLAK, RCM, brute force)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.anchored.bruteforce import BruteForceAnchoredKCore
from repro.anchored.exact_small_k import ExactSmallK
from repro.anchored.followers import compute_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.olak import OLAKAnchoredKCore
from repro.anchored.rcm import RCMAnchoredKCore
from repro.anchored.result import AnchoredKCoreResult
from repro.backends import numpy_available
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph
from tests.conftest import reference_greedy

ALL_SOLVERS = [GreedyAnchoredKCore, OLAKAnchoredKCore, RCMAnchoredKCore, BruteForceAnchoredKCore]
HEURISTICS = [GreedyAnchoredKCore, OLAKAnchoredKCore, RCMAnchoredKCore]


@pytest.fixture
def two_triangles() -> Graph:
    """Two triangles joined by an edge, a pendant vertex and an isolated one."""
    return Graph(
        edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)],
        vertices=range(8),
    )


class TestResultContract:
    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_result_structure(self, toy_graph, solver_cls):
        result = solver_cls(toy_graph, 3, 2).select()
        assert isinstance(result, AnchoredKCoreResult)
        assert result.k == 3
        assert result.budget == 2
        assert len(result.anchors) <= 2
        assert result.num_followers == len(result.followers)
        assert result.stats.runtime_seconds >= 0
        assert result.summary()

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_reported_followers_are_consistent(self, toy_graph, solver_cls):
        result = solver_cls(toy_graph, 3, 2).select()
        recomputed = compute_followers(toy_graph, 3, result.anchors)
        assert set(result.followers) == recomputed

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_anchored_core_size_matches_definition(self, toy_graph, solver_cls):
        from repro.cores.decomposition import k_core

        result = solver_cls(toy_graph, 3, 2).select()
        expected = len(k_core(toy_graph, 3) | set(result.anchors) | set(result.followers))
        assert result.anchored_core_size == expected

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    def test_negative_budget_rejected(self, toy_graph, solver_cls):
        with pytest.raises(ParameterError):
            solver_cls(toy_graph, 3, -1)

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS)
    @pytest.mark.parametrize(
        "k, budget", [(2.5, 2), ("3", 2), (True, 2), (3, 2.5), (3, None), (3, True)]
    )
    def test_non_integer_k_or_budget_rejected(self, toy_graph, solver_cls, k, budget):
        # A fractional budget would buy an extra anchor and a fractional k
        # would answer nothing, so both must fail before any work.
        with pytest.raises(ParameterError):
            solver_cls(toy_graph, k, budget)

    @pytest.mark.parametrize("solver_cls", HEURISTICS)
    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, None, [False]])
    def test_non_bool_stop_on_zero_gain_rejected(self, toy_graph, solver_cls, flag):
        # "no" is truthy: it used to switch the option on silently.
        with pytest.raises(ParameterError, match="stop_on_zero_gain"):
            solver_cls(toy_graph, 3, 2, stop_on_zero_gain=flag)

    @pytest.mark.parametrize("solver_cls", HEURISTICS)
    def test_zero_budget_returns_no_anchors(self, toy_graph, solver_cls):
        result = solver_cls(toy_graph, 3, 0).select()
        assert result.anchors == ()
        assert result.followers == frozenset()

    @pytest.mark.parametrize("solver_cls", HEURISTICS)
    def test_duplicate_initial_anchors_spend_budget_once(self, two_triangles, solver_cls):
        result = solver_cls(two_triangles, 2, 2, initial_anchors=[3, 3]).select()
        assert result.anchors[0] == 3
        assert len(set(result.anchors)) == len(result.anchors) <= 2

    @pytest.mark.parametrize("solver_cls", HEURISTICS)
    def test_initial_anchors_over_budget_rejected(self, two_triangles, solver_cls):
        with pytest.raises(ParameterError):
            solver_cls(two_triangles, 2, 2, initial_anchors=[3, 4, 5, 6])
        # Duplicates do not count against the budget.
        solver_cls(two_triangles, 2, 2, initial_anchors=[6, 7, 6])


#: Run in a fresh interpreter: construct one solver (argv[1]) on the toy
#: graph, then print the modules its first solve loads.
FIRST_SOLVE = textwrap.dedent(
    """
    import json
    import sys

    from repro.anchored.bruteforce import BruteForceAnchoredKCore
    from repro.anchored.greedy import GreedyAnchoredKCore
    from repro.anchored.olak import OLAKAnchoredKCore
    from repro.anchored.rcm import RCMAnchoredKCore
    from repro.avt.incremental import IncAVTTracker
    from repro.avt.problem import AVTProblem
    from repro.graph.datasets import toy_example_evolving_graph

    evolving = toy_example_evolving_graph()
    name = sys.argv[1]
    if name == "IncAVTTracker":
        problem = AVTProblem(evolving, k=3, budget=2)
        tracker = IncAVTTracker()
        solve = lambda: tracker.track(problem)
    else:
        solve = globals()[name](evolving.base, 3, 2).select
    before = set(sys.modules)
    solve()
    print(json.dumps(sorted(set(sys.modules) - before)))
    """
)


class TestBackendResolution:
    """Every heuristic resolves ``backend=`` when it is constructed; brute
    force builds no index and takes none."""

    @pytest.mark.parametrize("solver_cls", HEURISTICS)
    def test_unknown_backend_fails_at_construction(self, toy_graph, solver_cls):
        with pytest.raises(ParameterError, match="unknown backend"):
            solver_cls(toy_graph, 3, 2, backend="sparse")

    @pytest.mark.parametrize(
        "solver_name", [cls.__name__ for cls in ALL_SOLVERS] + ["IncAVTTracker"]
    )
    def test_the_first_solve_in_a_process_imports_nothing(self, solver_name):
        # A solve that imports the backend (numpy with it) reports the
        # import as its runtime_seconds: 0.2 s on a 17-vertex graph.  The
        # child inherits REPRO_TRACE and REPRO_DISABLE_NUMPY, so each suite
        # configuration checks its own path.
        source = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        completed = subprocess.run(
            [sys.executable, "-c", FIRST_SOLVE, solver_name],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout.splitlines()[-1]) == []


class TestGreedy:
    def test_finds_optimal_pair_on_toy_graph(self, toy_graph):
        result = GreedyAnchoredKCore(toy_graph, 3, 2).select()
        assert set(result.anchors) == {10, 17}
        assert result.num_followers == 7
        assert result.anchored_core_size == 14

    def test_first_anchor_has_maximum_marginal_gain(self, toy_graph):
        result = GreedyAnchoredKCore(toy_graph, 3, 1).select()
        assert result.anchors == (10,)
        assert result.num_followers == 5

    def test_disabling_pruning_does_not_change_the_answer(self, toy_graph):
        pruned = GreedyAnchoredKCore(toy_graph, 3, 2, order_pruning=True).select()
        unpruned = GreedyAnchoredKCore(toy_graph, 3, 2, order_pruning=False).select()
        assert pruned.num_followers == unpruned.num_followers
        assert unpruned.stats.candidates_evaluated >= pruned.stats.candidates_evaluated

    @pytest.mark.parametrize("flag", ["no", "false", "", 0, 1, None])
    def test_non_bool_order_pruning_rejected(self, flag):
        graph = chung_lu_graph(300, 900, skew=1.2, seed=3)
        unpruned = GreedyAnchoredKCore(graph, 3, 4, order_pruning=False).select()
        pruned = GreedyAnchoredKCore(graph, 3, 4, order_pruning=True).select()
        # The switch is observable: pruning evaluates fewer candidates.
        assert pruned.stats.candidates_evaluated < unpruned.stats.candidates_evaluated
        with pytest.raises(ParameterError, match="order_pruning"):
            GreedyAnchoredKCore(graph, 3, 4, order_pruning=flag)

    def test_stop_on_zero_gain(self):
        # A clique has no useful anchors: greedy should stop with none selected.
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        result = GreedyAnchoredKCore(Graph(edges=edges), 4, 3).select()
        assert result.anchors == ()

    def test_zero_gain_can_be_allowed(self, toy_graph):
        result = GreedyAnchoredKCore(toy_graph, 3, 8, stop_on_zero_gain=True).select()
        # There are only a few productive anchors; the solver stops early.
        assert len(result.anchors) < 8

    def test_initial_anchors_are_respected(self, toy_graph):
        result = GreedyAnchoredKCore(toy_graph, 3, 2, initial_anchors=[15]).select()
        assert 15 in result.anchors

    def test_budget_larger_than_graph(self, toy_graph):
        result = GreedyAnchoredKCore(toy_graph, 3, 100).select()
        assert len(result.anchors) <= toy_graph.num_vertices


class TestOLAK:
    def test_matches_greedy_quality_on_toy_graph(self, toy_graph):
        olak = OLAKAnchoredKCore(toy_graph, 3, 2).select()
        greedy = GreedyAnchoredKCore(toy_graph, 3, 2).select()
        assert olak.num_followers == greedy.num_followers

    def test_visits_more_than_greedy(self, cl_graph):
        olak = OLAKAnchoredKCore(cl_graph, 4, 3).select()
        greedy = GreedyAnchoredKCore(cl_graph, 4, 3).select()
        assert olak.stats.visited_vertices >= greedy.stats.visited_vertices
        assert olak.stats.candidates_evaluated >= greedy.stats.candidates_evaluated

    def test_same_followers_as_greedy_on_random_graph(self, cl_graph):
        olak = OLAKAnchoredKCore(cl_graph, 4, 3).select()
        greedy = GreedyAnchoredKCore(cl_graph, 4, 3).select()
        assert olak.num_followers == greedy.num_followers


class TestRCM:
    def test_reasonable_quality(self, toy_graph):
        rcm = RCMAnchoredKCore(toy_graph, 3, 2).select()
        greedy = GreedyAnchoredKCore(toy_graph, 3, 2).select()
        assert rcm.num_followers >= 0.5 * greedy.num_followers

    def test_shortlist_size_validation(self, toy_graph):
        with pytest.raises(ParameterError):
            RCMAnchoredKCore(toy_graph, 3, 2, shortlist_size=0)
        # A fraction used to fail later, as a TypeError from a slice.
        for bad in (2.5, "3", True, None):
            with pytest.raises(ParameterError):
                RCMAnchoredKCore(toy_graph, 3, 2, shortlist_size=bad)

    def test_larger_shortlist_never_hurts(self, cl_graph):
        small = RCMAnchoredKCore(cl_graph, 4, 3, shortlist_size=2).select()
        large = RCMAnchoredKCore(cl_graph, 4, 3, shortlist_size=50).select()
        assert large.num_followers >= small.num_followers

    def test_evaluates_fewer_candidates_than_olak(self, cl_graph):
        rcm = RCMAnchoredKCore(cl_graph, 4, 3).select()
        olak = OLAKAnchoredKCore(cl_graph, 4, 3).select()
        assert rcm.stats.candidates_evaluated <= olak.stats.candidates_evaluated


class TestBruteForce:
    def test_optimal_on_toy_graph(self, toy_graph):
        result = BruteForceAnchoredKCore(toy_graph, 3, 2).select()
        assert result.num_followers == 7
        assert set(result.anchors) == {10, 17}

    def test_never_worse_than_heuristics(self, toy_graph):
        brute = BruteForceAnchoredKCore(toy_graph, 3, 2).select()
        for solver_cls in HEURISTICS:
            heuristic = solver_cls(toy_graph, 3, 2).select()
            assert brute.num_followers >= heuristic.num_followers

    def test_combination_guard(self, cl_graph):
        with pytest.raises(ParameterError):
            BruteForceAnchoredKCore(cl_graph, 4, 5, max_combinations=10).select()

    @pytest.mark.parametrize("bad", ["x", -1, 0, True, 2.5, None])
    def test_max_combinations_is_checked_at_construction(self, toy_graph, bad):
        # "x" used to escape select() as a raw TypeError after the index
        # build, and -1 or True to fail later with a misleading count.
        with pytest.raises(ParameterError, match="max_combinations"):
            BruteForceAnchoredKCore(toy_graph, 3, 2, max_combinations=bad)

    def test_a_universe_member_outside_the_graph_is_refused_at_construction(self, toy_graph):
        # An unhashable or non-iterable universe is a ParameterError
        # (tests/test_errors.py).
        with pytest.raises(VertexNotFoundError, match="99"):
            BruteForceAnchoredKCore(toy_graph, 3, 2, candidate_universe=[7, 99])

    def test_explicit_universe(self, toy_graph):
        result = BruteForceAnchoredKCore(
            toy_graph, 3, 2, candidate_universe=[7, 10, 15]
        ).select()
        assert set(result.anchors) <= {7, 10, 15}
        assert result.num_followers == 6  # best pair within the restricted universe

    def test_budget_zero(self, toy_graph):
        result = BruteForceAnchoredKCore(toy_graph, 3, 0).select()
        assert result.anchors == ()
        assert result.num_followers == 0


class TestCrossSolverAgreement:
    @pytest.mark.parametrize("k", [3, 4])
    def test_heuristics_close_to_optimal_on_small_random_graphs(self, k):
        graph = chung_lu_graph(40, 110, skew=1.1, seed=k)
        brute = BruteForceAnchoredKCore(graph, k, 2, max_combinations=5_000_000).select()
        greedy = GreedyAnchoredKCore(graph, k, 2).select()
        assert greedy.num_followers <= brute.num_followers
        # Greedy for anchored k-core has no approximation guarantee, but on
        # small instances it should find most of the optimum.
        if brute.num_followers:
            assert greedy.num_followers >= 0.5 * brute.num_followers


@st.composite
def tiny_graphs(draw) -> Graph:
    """Graphs of at most 8 vertices, where brute force is cheap."""
    num_vertices = draw(st.integers(min_value=1, max_value=8))
    possible_edges = [(u, v) for u in range(num_vertices) for v in range(u + 1, num_vertices)]
    edges = (
        draw(st.lists(st.sampled_from(possible_edges), unique=True))
        if possible_edges
        else []
    )
    return Graph(edges=edges, vertices=range(num_vertices))


@pytest.mark.parametrize(
    "backend",
    [
        "dict",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not numpy_available(), reason="numpy is not installed"),
        ),
    ],
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=tiny_graphs(),
    k=st.integers(min_value=1, max_value=4),
    budget=st.integers(min_value=0, max_value=3),
)
def test_greedy_against_exact_solvers_on_tiny_graphs(backend, graph, k, budget):
    """Greedy never beats the optimum, and matches it with one anchor."""
    greedy = GreedyAnchoredKCore(graph, k, budget, backend=backend).select()
    brute = BruteForceAnchoredKCore(graph, k, budget).select()
    assert len(greedy.anchors) <= budget
    assert greedy.num_followers <= brute.num_followers
    if budget == 1:
        assert greedy.num_followers == brute.num_followers
    if k <= 2:
        assert ExactSmallK(graph, k, budget).select().num_followers == brute.num_followers


@st.composite
def small_graphs_with_anchors(draw):
    """Graphs of at most 14 vertices (int or str ids) plus initial anchors."""
    num_vertices = draw(st.integers(min_value=1, max_value=14))
    vertices = draw(
        st.sampled_from([list(range(num_vertices)), [f"v{i}" for i in range(num_vertices)]])
    )
    possible_edges = [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]
    edges = (
        draw(st.lists(st.sampled_from(possible_edges), max_size=3 * num_vertices, unique=True))
        if possible_edges
        else []
    )
    anchors = draw(st.lists(st.sampled_from(vertices), max_size=2, unique=True))
    return Graph(edges=edges, vertices=vertices), anchors


@pytest.mark.parametrize(
    "backend",
    [
        "dict",
        pytest.param(
            "numpy",
            marks=pytest.mark.skipif(not numpy_available(), reason="numpy is not installed"),
        ),
    ],
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    scenario=small_graphs_with_anchors(),
    k=st.integers(min_value=1, max_value=5),
    extra=st.integers(min_value=0, max_value=3),
)
def test_greedy_equals_the_index_free_reference(backend, scenario, k, extra):
    """Greedy picks, and counts, what the definitions-only reference Greedy does."""
    graph, initial = scenario
    budget = len(initial) + extra
    result = GreedyAnchoredKCore(
        graph, k, budget, initial_anchors=initial, backend=backend
    ).select()
    anchors, followers, size, evaluated, visited = reference_greedy(
        graph, k, budget, initial
    )
    assert result.anchors == anchors
    assert result.followers == followers
    assert result.anchored_core_size == size
    assert result.stats.candidates_evaluated == evaluated
    assert result.stats.visited_vertices == visited
