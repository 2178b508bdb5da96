"""Tests for the exception hierarchy: everything the library raises is catchable as ReproError."""

from __future__ import annotations

import pytest

from repro.errors import (
    DatasetError,
    EdgeNotFoundError,
    GraphError,
    InvariantViolationError,
    ParameterError,
    ReproError,
    SelfLoopError,
    SnapshotError,
    VertexNotFoundError,
)
from repro.errors import require_bool
from repro.graph.static import Graph


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_cls",
        [
            GraphError,
            VertexNotFoundError,
            EdgeNotFoundError,
            SelfLoopError,
            SnapshotError,
            ParameterError,
            InvariantViolationError,
            DatasetError,
        ],
    )
    def test_every_library_error_derives_from_repro_error(self, exception_cls):
        assert issubclass(exception_cls, ReproError)

    def test_graph_specific_errors_derive_from_graph_error(self):
        for exception_cls in (VertexNotFoundError, EdgeNotFoundError, SelfLoopError):
            assert issubclass(exception_cls, GraphError)

    def test_errors_carry_the_offending_objects(self):
        vertex_error = VertexNotFoundError("alice")
        assert vertex_error.vertex == "alice"
        edge_error = EdgeNotFoundError(1, 2)
        assert edge_error.edge == (1, 2)
        loop_error = SelfLoopError(7)
        assert loop_error.vertex == 7

    def test_library_failures_are_catchable_as_repro_error(self):
        graph = Graph()
        with pytest.raises(ReproError):
            graph.neighbors("missing")
        with pytest.raises(ReproError):
            graph.remove_edge(1, 2)
        with pytest.raises(ReproError):
            graph.add_edge(3, 3)


class TestRequireBool:
    @pytest.mark.parametrize("value", [True, False])
    def test_accepts_bools(self, value):
        require_bool("flag", value)
        require_bool("flag", value, allow_none=True)

    def test_none_only_where_allowed(self):
        require_bool("flag", None, allow_none=True)
        with pytest.raises(ParameterError, match="flag must be True or False, not None"):
            require_bool("flag", None)

    @pytest.mark.parametrize("value", ["no", "false", "", 0, 1, 0.0, [False], object()])
    def test_rejects_stand_ins(self, value):
        with pytest.raises(ParameterError, match="flag"):
            require_bool("flag", value)
        with pytest.raises(ParameterError, match="True, False or None"):
            require_bool("flag", value, allow_none=True)


def test_an_unhashable_anchor_is_a_parameter_error():
    """Every anchor argument goes through ``require_hashable``: a list given
    as a vertex fails with a ParameterError naming the argument, not a raw
    ``TypeError: unhashable type``."""
    from repro.anchored.anchored_core import AnchoredCoreIndex
    from repro.anchored.bruteforce import BruteForceAnchoredKCore
    from repro.anchored.followers import anchored_k_core, compute_followers, follower_gain
    from repro.anchored.greedy import GreedyAnchoredKCore
    from repro.anchored.olak import OLAKAnchoredKCore
    from repro.anchored.rcm import RCMAnchoredKCore
    from repro.cores.decomposition import anchored_core_decomposition

    graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
    bad = [[1], 3]
    sites = {
        "initial_anchors": [
            lambda solver=solver: solver(graph, 2, 2, initial_anchors=bad)
            for solver in (GreedyAnchoredKCore, OLAKAnchoredKCore, RCMAnchoredKCore)
        ],
        "anchors": [
            lambda: AnchoredCoreIndex(graph, 2, anchors=bad),
            lambda: anchored_core_decomposition(graph, bad),
            lambda: compute_followers(graph, 2, bad),
            lambda: compute_followers(graph, 2, bad, k_core_vertices={0, 1, 2}),
            lambda: anchored_k_core(graph, 2, bad),
        ],
        "base_anchors": [lambda: follower_gain(graph, 2, bad, 3)],
        "candidate_universe": [
            lambda: BruteForceAnchoredKCore(graph, 2, 1, candidate_universe=bad)
        ],
        "candidate": [lambda: follower_gain(graph, 2, [3], [1])],
        "vertex": [lambda: AnchoredCoreIndex(graph, 2).commit_anchor([1])],
    }
    for name, calls in sites.items():
        message = rf"^{name}: a vertex must be hashable, not \[1\]$"
        for call in calls:
            with pytest.raises(ParameterError, match=message):
                call()


def test_a_non_iterable_anchor_argument_is_a_parameter_error():
    """A single vertex passed where a collection of anchors is expected
    fails with a ParameterError naming the argument, not ``'int' object is
    not iterable``; the public follower functions check ``k`` and the
    candidate the same way."""
    from repro.anchored.anchored_core import AnchoredCoreIndex
    from repro.anchored.bruteforce import BruteForceAnchoredKCore
    from repro.anchored.followers import (
        anchored_k_core,
        compute_followers,
        full_shell_followers,
        marginal_followers,
    )
    from repro.anchored.greedy import GreedyAnchoredKCore
    from repro.anchored.olak import OLAKAnchoredKCore
    from repro.anchored.rcm import RCMAnchoredKCore
    from repro.avt.incremental import IncAVTTracker
    from repro.cores.decomposition import anchored_core_decomposition, core_numbers
    from repro.cores.maintenance import CoreMaintainer

    graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
    core = core_numbers(graph)
    maintainer = CoreMaintainer(graph)
    refresh = IncAVTTracker().refresh_anchors
    followers = (marginal_followers, full_shell_followers)
    sites = {
        "initial_anchors": [
            lambda solver=solver: solver(graph, 2, 2, initial_anchors=5)
            for solver in (GreedyAnchoredKCore, OLAKAnchoredKCore, RCMAnchoredKCore)
        ],
        "anchors": [
            lambda: AnchoredCoreIndex(graph, 2, anchors=5),
            lambda: anchored_core_decomposition(graph, 5),
            lambda: compute_followers(graph, 2, 5),
            lambda: anchored_k_core(graph, 2, 5),
            lambda: refresh(maintainer, 2, 2, 5, set()),
            lambda: refresh(maintainer, 2, 2, [[1]], set()),
        ],
        "candidate_universe": [
            lambda: BruteForceAnchoredKCore(graph, 2, 1, candidate_universe=5)
        ],
        "k": [
            lambda function=function, k=k: function(graph, k, 3, core)
            for function in followers
            for k in ("3", True, 2.0)
        ],
        "candidate": [lambda function=function: function(graph, 2, [1], core) for function in followers],
    }
    for name, calls in sites.items():
        for call in calls:
            with pytest.raises(ParameterError, match=rf"^{name}\b"):
                call()
