"""Unit tests for follower computation (Definitions 3-4, Algorithm 3)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from itertools import accumulate, chain
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.anchored.followers import (
    anchored_k_core,
    commit_anchor_cores,
    compute_followers,
    follower_gain,
    full_shell_followers,
    marginal_followers,
)
from repro.backends.dict_backend import dict_anchored_peel
from repro.backends.numpy_backend import CsrRows
from repro.cores.decomposition import (
    commit_anchor_ids,
    compact_marginal_followers,
    core_numbers,
    k_core,
)
from repro.cores.maintenance import CoreMaintainer
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAnchoredKCore:
    def test_without_anchors_equals_plain_k_core(self, toy_graph):
        assert anchored_k_core(toy_graph, 3) == k_core(toy_graph, 3)

    def test_example_3(self, toy_graph):
        anchored = anchored_k_core(toy_graph, 3, {7, 10})
        assert anchored == {2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16}

    def test_anchors_always_included(self, toy_graph):
        # Even an isolated-ish, low-degree vertex stays once anchored.
        assert 4 in anchored_k_core(toy_graph, 3, {4})

    def test_monotone_in_anchor_set(self, cl_graph):
        vertices = sorted(cl_graph.vertices(), key=repr)
        small = anchored_k_core(cl_graph, 4, vertices[:2])
        large = anchored_k_core(cl_graph, 4, vertices[:5])
        assert small <= large

    def test_k_zero_returns_everything(self, toy_graph):
        assert anchored_k_core(toy_graph, 0) == set(toy_graph.vertices())

    def test_unknown_anchor_raises(self, toy_graph):
        with pytest.raises(VertexNotFoundError):
            anchored_k_core(toy_graph, 3, {999})

    def test_negative_k_raises(self, toy_graph):
        with pytest.raises(ParameterError):
            anchored_k_core(toy_graph, -1)

    @pytest.mark.parametrize("k", [2.5, "3", True, None])
    def test_non_integer_k_raises(self, toy_graph, k):
        with pytest.raises(ParameterError):
            anchored_k_core(toy_graph, k, {4})


class TestComputeFollowers:
    def test_example_3_followers(self, toy_graph):
        assert compute_followers(toy_graph, 3, {7, 10}) == {2, 3, 5, 6, 11}

    def test_example_6_followers(self, toy_graph):
        assert compute_followers(toy_graph, 3, {15}) == {14}

    def test_followers_exclude_anchors_and_core(self, toy_graph):
        followers = compute_followers(toy_graph, 3, {7, 10})
        assert followers.isdisjoint({7, 10})
        assert followers.isdisjoint(k_core(toy_graph, 3))

    def test_anchoring_core_member_gains_nothing(self, toy_graph):
        assert compute_followers(toy_graph, 3, {8}) == set()

    def test_precomputed_core_is_honoured(self, toy_graph):
        plain = k_core(toy_graph, 3)
        assert compute_followers(toy_graph, 3, {7, 10}, k_core_vertices=plain) == {2, 3, 5, 6, 11}

    def test_empty_anchor_set_has_no_followers(self, toy_graph):
        assert compute_followers(toy_graph, 3, ()) == set()

    def test_follower_gain_matches_difference(self, toy_graph):
        gain = follower_gain(toy_graph, 3, [15], 10)
        with_both = compute_followers(toy_graph, 3, {15, 10})
        with_base = compute_followers(toy_graph, 3, {15})
        assert gain == with_both - with_base - {10}

    def test_precomputed_core_path_rejects_unknown_anchor(self, toy_graph):
        with pytest.raises(VertexNotFoundError):
            compute_followers(toy_graph, 3, {7, 999}, k_core_vertices=k_core(toy_graph, 3))

    def test_precomputed_core_path_rejects_negative_k(self, toy_graph):
        with pytest.raises(ParameterError):
            compute_followers(toy_graph, -1, {7}, k_core_vertices=set(toy_graph.vertices()))

    @pytest.mark.parametrize("k", [2.5, "3", True, None])
    def test_both_paths_reject_non_integer_k(self, toy_graph, k):
        plain = k_core(toy_graph, 3)
        with pytest.raises(ParameterError):
            compute_followers(toy_graph, k, {7})
        with pytest.raises(ParameterError):
            compute_followers(toy_graph, k, {7}, k_core_vertices=plain)
        with pytest.raises(ParameterError):
            follower_gain(toy_graph, k, [], 7)
        with pytest.raises(ParameterError):
            follower_gain(toy_graph, k, [], 7, k_core_vertices=plain)


#: Run in a fresh interpreter: make the call named by argv[1] on the toy
#: graph, then print the modules it loaded.
FIRST_CALL = textwrap.dedent(
    """
    import json
    import sys

    from repro.anchored.followers import anchored_k_core, compute_followers, follower_gain
    from repro.cores.decomposition import k_core
    from repro.cores.maintenance import CoreMaintainer
    from repro.graph.datasets import toy_example_graph

    graph = toy_example_graph()
    plain = CoreMaintainer(graph).k_core_vertices(3)
    call = {
        "k_core": lambda: k_core(graph, 3),
        "anchored_k_core": lambda: anchored_k_core(graph, 3, [7, 10]),
        "compute_followers": lambda: compute_followers(graph, 3, [7, 10]),
        "compute_followers_region": lambda: compute_followers(graph, 3, [7, 10], plain),
        "follower_gain": lambda: follower_gain(graph, 3, [15], 10),
    }[sys.argv[1]]
    before = set(sys.modules)
    call()
    print(json.dumps(sorted(set(sys.modules) - before)))
    """
)


@pytest.mark.parametrize(
    "call",
    ["k_core", "anchored_k_core", "compute_followers", "compute_followers_region", "follower_gain"],
)
def test_the_first_k_core_call_in_a_process_imports_nothing(call):
    """The k-core is one cascade in :mod:`repro.cores.decomposition`: no
    call reaches a backend module (the dict backend's, with ``heapq``),
    whatever ``auto`` would pick.  The child inherits ``REPRO_TRACE`` and
    ``REPRO_DISABLE_NUMPY``."""
    source = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", FIRST_CALL, call],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.splitlines()[-1]) == []


class TestMarginalFollowers:
    def test_matches_exact_on_toy_graph(self, toy_graph):
        core = core_numbers(toy_graph)
        for vertex in toy_graph.vertices():
            if core[vertex] >= 3:
                continue
            fast = marginal_followers(toy_graph, 3, vertex, core)
            exact = follower_gain(toy_graph, 3, [], vertex)
            assert fast == exact, vertex

    def test_matches_full_shell_variant(self, cl_graph):
        core = core_numbers(cl_graph)
        for vertex in list(cl_graph.vertices())[:40]:
            if core[vertex] >= 4:
                continue
            assert marginal_followers(cl_graph, 4, vertex, core) == full_shell_followers(
                cl_graph, 4, vertex, core
            )

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_exact_on_random_graphs(self, k):
        graph = chung_lu_graph(70, 220, skew=1.2, seed=k)
        core = core_numbers(graph)
        for vertex in list(graph.vertices())[:35]:
            if core[vertex] >= k:
                continue
            fast = marginal_followers(graph, k, vertex, core)
            exact = follower_gain(graph, k, [], vertex)
            assert fast == exact, (k, vertex)

    def test_candidate_inside_k_core_returns_empty(self, toy_graph):
        core = core_numbers(toy_graph)
        assert marginal_followers(toy_graph, 3, 8, core) == set()
        assert full_shell_followers(toy_graph, 3, 8, core) == set()

    def test_candidate_with_no_shell_neighbours_returns_empty(self, toy_graph):
        core = core_numbers(toy_graph)
        # Vertex 4 only touches vertex 1 (core 2)... which is in the shell, so
        # use a custom graph: a pendant hanging off the 3-core.
        graph = toy_graph.copy()
        graph.add_edge(99, 8)
        core = core_numbers(graph)
        assert marginal_followers(graph, 3, 99, core) == set()

    def test_visit_log_collects_region(self, toy_graph):
        core = core_numbers(toy_graph)
        log = []
        marginal_followers(toy_graph, 3, 10, core, visit_log=log)
        assert log  # the exploration touched the shell region around 10

    def test_invalid_k_raises(self, toy_graph):
        core = core_numbers(toy_graph)
        with pytest.raises(ParameterError):
            marginal_followers(toy_graph, 0, 7, core)
        with pytest.raises(ParameterError):
            full_shell_followers(toy_graph, 0, 7, core)

    def test_unknown_candidate_raises(self, toy_graph):
        core = core_numbers(toy_graph)
        with pytest.raises(VertexNotFoundError):
            marginal_followers(toy_graph, 3, 999, core)

    def test_incremental_greedy_context(self, toy_graph):
        """The fast path stays exact when previous anchors carry infinite core."""
        from repro.cores.decomposition import anchored_core_decomposition

        anchored = anchored_core_decomposition(toy_graph, anchors={10})
        fast = marginal_followers(toy_graph, 3, 17, anchored.core)
        exact = follower_gain(toy_graph, 3, [10], 17)
        assert fast == exact


@st.composite
def anchor_sequences(draw):
    """A graded random graph and a sequence of distinct anchors on it."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_vertices = draw(st.integers(min_value=2, max_value=50))
    density = draw(st.sampled_from((1.5, 2.5, 4.0)))
    num_edges = min(int(density * num_vertices), num_vertices * (num_vertices - 1) // 2)
    graph = chung_lu_graph(num_vertices, num_edges, skew=1.2, seed=seed)
    vertices = sorted(graph.vertices())
    anchors = draw(st.lists(st.sampled_from(vertices), max_size=6, unique=True))
    return graph, anchors


class TestRegionFollowers:
    """The precomputed-k-core path of ``compute_followers`` against the peel."""

    @SETTINGS
    @given(scenario=anchor_sequences(), k=st.integers(min_value=0, max_value=6), data=st.data())
    def test_equals_the_anchored_peel(self, scenario, k, data):
        graph, _ = scenario
        # Duplicates and k-core members included on purpose.
        anchors = data.draw(st.lists(st.sampled_from(sorted(graph.vertices())), max_size=8))
        plain = k_core(graph, k)
        expected = anchored_k_core(graph, k, anchors) - plain - set(anchors)
        assert compute_followers(graph, k, anchors, k_core_vertices=plain) == expected


class TestCommitAnchorCores:
    @SETTINGS
    @given(scenario=anchor_sequences())
    def test_uncapped_commits_equal_the_anchored_peel(self, scenario):
        graph, anchors = scenario
        core = core_numbers(graph)
        # A cap above the maximum degree cascades every level.
        cap = max(graph.degree_map().values(), default=0) + 1
        for position, anchor in enumerate(anchors):
            commit_anchor_cores(graph, anchor, core, cap=cap)
            expected = dict_anchored_peel(graph, frozenset(anchors[: position + 1])).core
            assert core == expected

    @SETTINGS
    @given(scenario=anchor_sequences(), cap=st.integers(min_value=1, max_value=6))
    def test_capped_commits_are_exact_up_to_the_cap(self, scenario, cap):
        graph, anchors = scenario
        core = core_numbers(graph)
        for position, anchor in enumerate(anchors):
            commit_anchor_cores(graph, anchor, core, cap=cap)
            expected = dict_anchored_peel(graph, frozenset(anchors[: position + 1])).core
            for vertex, value in expected.items():
                assert min(core[vertex], cap) == min(value, cap), vertex

    @SETTINGS
    @given(scenario=anchor_sequences(), cap=st.integers(min_value=1, max_value=6))
    def test_reverse_replay_restores_the_mapping(self, scenario, cap):
        graph, anchors = scenario
        original = core_numbers(graph)
        core = dict(original)
        undo = []
        for anchor in anchors:
            touched = commit_anchor_cores(graph, anchor, core, cap=cap)
            assert touched[0][0] == anchor
            assert len({vertex for vertex, _ in touched}) == len(touched)
            undo.extend(touched)
        for vertex, value in reversed(undo):
            core[vertex] = value
        assert core == original
        assert all(type(core[vertex]) is int for vertex in core)


def id_rows(graph, interned):
    """Both kinds of ``rows`` the id cascades run on, over the ids of
    ``interned`` (``graph`` as a maintainer holds it): a bare numpy
    snapshot's rows, whose CSR here holds every other row and which
    translate the rest from ``graph``'s neighbour sets, and copies of the
    maintained graph's own rows, which IncAVT and a bound numpy snapshot
    read (neither needs numpy)."""
    rows = CsrRows(list(map(graph.neighbors, interned.id_vertices)), interned.ids.__getitem__)
    held = [row if vid % 2 else () for vid, row in enumerate(interned.rows)]
    rows.indptr = list(accumulate(map(len, held), initial=0))
    rows.indices = list(chain.from_iterable(held))
    return rows, [set(row) for row in interned.rows]


class TestIdListCascades:
    """The integer-id twins behind the numpy kernel and IncAVT's swap/fill
    pass, pinned to the dict kernels on plain lists (no numpy needed)."""

    @SETTINGS
    @given(scenario=anchor_sequences(), k=st.integers(min_value=1, max_value=6))
    def test_region_cascade_matches_marginal_followers(self, scenario, k):
        graph, anchors = scenario
        interned = CoreMaintainer(graph).graph
        vertices = interned.id_vertices
        core = dict_anchored_peel(graph, frozenset(anchors)).core
        core_ids = [core[vertex] for vertex in vertices]
        for vertex, value in core.items():
            if value >= k:
                continue
            visit_log = []
            region = set()
            expected = marginal_followers(graph, k, vertex, core, visit_log, region_out=region)
            for rows in id_rows(graph, interned):
                region_ids = set()
                gained, visited = compact_marginal_followers(
                    rows, k, interned.ids[vertex], core_ids, region_out=region_ids
                )
                assert {vertices[vid] for vid in gained} == expected
                assert visited == len(visit_log)
                assert {vertices[vid] for vid in region_ids} == region

    @SETTINGS
    @given(scenario=anchor_sequences())
    def test_commit_ids_match_commit_anchor_cores(self, scenario):
        graph, anchors = scenario
        interned = CoreMaintainer(graph).graph
        vertices = interned.id_vertices
        for cap in range(1, 6):
            for rows in id_rows(graph, interned):
                core = dict(dict_anchored_peel(graph, frozenset()).core)
                core_ids = [core[vertex] for vertex in vertices]
                for anchor in anchors:
                    touched = commit_anchor_cores(graph, anchor, core, cap=cap)
                    touched_ids = commit_anchor_ids(rows, core_ids, interned.ids[anchor], cap)
                    assert {(vertices[vid], old) for vid, old in touched_ids} == set(touched)
                    assert dict(zip(vertices, core_ids)) == core
