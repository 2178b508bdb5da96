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
