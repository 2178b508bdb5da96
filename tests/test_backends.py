"""Unit tests for the execution-backend protocol, backend lookup and the auto policy."""

from __future__ import annotations

import importlib.util

import pytest

from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import (
    BACKEND_DICT,
    BACKEND_NUMPY,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    CoreIndexKernel,
    get_backend,
    numpy_available,
    numpy_unavailable_reason,
    resolve_backend,
)
from repro.backends.dict_backend import DictBackend, dict_anchored_peel, dict_k_core
from repro.engine import StreamingAVTEngine
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")


def _expected_auto_winner() -> str:
    """What ``auto`` should pick on an amortised workload of any size."""
    if numpy_available():
        return BACKEND_NUMPY
    return BACKEND_DICT


class TestRegistry:
    """``get_backend``: the closed name set, shared instances, and instances
    passed as given."""

    def test_get_backend_passes_instances_through(self):
        instance = get_backend("dict")
        assert get_backend(instance, 10**9) is instance

    def test_get_backend_caches_instances(self):
        assert get_backend("dict") is get_backend("dict", 5)

    def test_unknown_backend_raises(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        # Unhashable values must not escape as a raw TypeError.
        for value in ("warp", None, 3, ["dict"], {"dict"}):
            with pytest.raises(ParameterError):
                get_backend(value)
            with pytest.raises(ParameterError):
                resolve_backend(value, 0)
            with pytest.raises(ParameterError):
                GreedyAnchoredKCore(graph, 2, 1, backend=value).select()

    @pytest.mark.parametrize("name", ["sharded", "numba", "compact"])
    def test_removed_backends_are_unknown(self, name):
        with pytest.raises(ParameterError, match=r"\['auto', 'dict', 'numpy'\]"):
            get_backend(name)

    def test_availability_is_probed_even_for_cached_instances(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
        if importlib.util.find_spec("numpy") is None:
            pytest.skip("numpy is not installed")
        assert get_backend(BACKEND_NUMPY) is get_backend(BACKEND_NUMPY)  # cached
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        with pytest.raises(ParameterError, match="disabled via REPRO_DISABLE_NUMPY"):
            get_backend(BACKEND_NUMPY)

    def test_custom_backend_usable_end_to_end(self):
        class TracingBackend(DictBackend):
            name = "tracing"
            index_builds = 0

            def build_core_index(self, graph):
                TracingBackend.index_builds += 1
                return super().build_core_index(graph)

        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        result = GreedyAnchoredKCore(graph, 2, 1, backend=TracingBackend()).select()
        assert TracingBackend.index_builds == 1
        reference = GreedyAnchoredKCore(graph, 2, 1, backend="dict").select()
        assert result.anchors == reference.anchors

    @pytest.mark.parametrize(
        "method", ["commit_anchor", "marginal_followers_with_region", "removal_ranks"]
    )
    def test_custom_kernel_must_implement_the_incremental_surface(self, method):
        """Greedy's gain cache needs exact touched sets and regions, so the
        protocol has no fallback for them: a kernel missing one cannot be
        built."""
        namespace = {
            name: lambda self, *args: None
            for name in CoreIndexKernel.__abstractmethods__
            if name != method
        }
        partial_kernel = type("PartialKernel", (CoreIndexKernel,), namespace)
        with pytest.raises(TypeError, match=method):
            partial_kernel()


class TestAutoPolicy:
    @pytest.mark.parametrize("num_vertices", [0, 1, 10**9])
    def test_amortised_workloads_pick_numpy_at_any_size(self, num_vertices):
        expected = _expected_auto_winner()
        assert resolve_backend("auto", num_vertices) == expected
        assert (
            resolve_backend("auto", num_vertices, workload=WORKLOAD_AMORTIZED)
            == expected
        )
        assert get_backend("auto", num_vertices).name == expected

    def test_one_shot_cascades_stay_on_dict_at_any_size(self):
        for num_vertices in (0, 1, 10**9):
            assert (
                resolve_backend("auto", num_vertices, workload=WORKLOAD_ONE_SHOT)
                == BACKEND_DICT
            )

    def test_explicit_names_bypass_the_policy(self):
        assert resolve_backend("dict", 10**9) == BACKEND_DICT
        assert resolve_backend("numpy", 1, workload=WORKLOAD_ONE_SHOT) == BACKEND_NUMPY

    def test_unknown_workload_raises(self):
        with pytest.raises(ParameterError):
            resolve_backend("auto", 10, workload="batch")

    def test_one_shot_callers_build_no_snapshot_under_auto(self, monkeypatch):
        """A single k-core cascade is one-shot work: auto must not build a snapshot."""
        from repro.anchored.followers import anchored_k_core
        from repro.backends.numpy_backend import NumpyGraph
        from repro.cores.decomposition import k_core
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(i, i + 1) for i in range(100)])

        def boom(*args, **kwargs):
            raise AssertionError("snapshot built for one-shot work")

        monkeypatch.setattr(CompactGraph, "from_graph", classmethod(boom))
        # Every numpy snapshot, from a graph or a maintainer, is constructed
        # here.
        monkeypatch.setattr(NumpyGraph, "__init__", boom)
        assert k_core(graph, 1, backend="auto") == set(graph.vertices())
        # The cascade peels the path from its far end back to vertex 1;
        # the anchor keeps itself.
        assert anchored_k_core(graph, 2, [0], backend="auto") == {0}


class TestEngineReResolution:
    """An engine resolves its backend once, at construction, and keeps it."""

    @staticmethod
    def _growth_delta(num_vertices: int) -> EdgeDelta:
        return EdgeDelta.from_iterables(
            inserted=[(i, i + 1) for i in range(num_vertices - 1)], removed=[]
        )

    def test_empty_auto_engine_starts_on_the_amortised_backend(self):
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        assert engine.backend == _expected_auto_winner()
        engine.ingest(self._growth_delta(64))
        engine.flush()
        assert engine.backend == _expected_auto_winner()
        engine._maintainer.validate()
        answer = engine.query(k=1, budget=0, warm=False)
        assert answer.anchored_core_size == 64

    def test_explicit_dict_engine_never_upgrades(self):
        engine = StreamingAVTEngine(backend="dict", batch_size=None)
        engine.ingest(self._growth_delta(64))
        engine.flush()
        assert engine.backend == BACKEND_DICT

    def test_checkpoint_with_unregistered_backend_instance_fails_fast(self, tmp_path):
        from repro.errors import CheckpointError

        class OrphanBackend(DictBackend):
            name = "orphan"

        engine = StreamingAVTEngine(backend=OrphanBackend(), batch_size=None)
        engine.ingest_insert(0, 1)
        with pytest.raises(CheckpointError):
            engine.checkpoint(tmp_path / "orphan.ckpt")

    def test_checkpoint_with_registered_backend_instance_round_trips(self, tmp_path):
        engine = StreamingAVTEngine(backend=get_backend("dict"), batch_size=None)
        engine.ingest_insert(0, 1)
        engine.flush()
        path = tmp_path / "dict.ckpt"
        engine.checkpoint(path)
        restored = StreamingAVTEngine.restore(path)
        assert restored.backend == BACKEND_DICT
        assert restored.to_state()["backend"] == BACKEND_DICT
        assert restored.core_numbers() == engine.core_numbers()

    def test_restored_engine_re_resolves_from_checkpoint(self, tmp_path):
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        engine.ingest(self._growth_delta(64))
        engine.flush()
        path = tmp_path / "grown.ckpt"
        engine.checkpoint(path)
        restored = StreamingAVTEngine.restore(path)
        # The checkpoint stores the *policy* ("auto"); the restored engine
        # resolves it in the restoring process.
        assert restored.backend == engine.backend


@needs_numpy
class TestNumpyKernels:
    def test_numpy_graph_shares_interner_contract(self):
        """A bare snapshot interns like an unordered CompactGraph: ids by
        position in the graph's iteration order, no sort."""
        from repro.backends.numpy_backend import NumpyGraph
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(3, 2), (2, "a"), (-1, 3)], vertices=[3, 2, "a", 99, -1])
        cgraph = CompactGraph.from_graph(graph, ordered=False)
        ngraph = NumpyGraph.from_graph(graph)
        assert ngraph.vertices == cgraph.interner.vertices == list(graph.vertices())
        assert ngraph.ids == cgraph.interner.ids
        assert ngraph.indptr.tolist() == ngraph.rows.indptr == cgraph.indptr
        assert ngraph.indices.tolist() == ngraph.rows.indices == cgraph.indices
        assert ngraph.num_vertices == 5 and ngraph.num_edges == 3
        assert ngraph.translate([0, 2]) == {3, "a"}
        with pytest.raises(VertexNotFoundError):
            ngraph.id_of("missing")

    def test_numpy_peel_matches_dict_peel(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_peel

        # Ids follow the graph's iteration order, the reverse of tie-break
        # order, so the shell ties and the anchor tail are broken by key.
        graph = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)],
            vertices=["lonely"] + list(range(6, -1, -1)),
        )
        ngraph = NumpyGraph.from_graph(graph)
        vertices = ngraph.vertices
        anchors = [6, 0]
        core_n, order_n = numpy_peel(ngraph, anchor_ids=map(ngraph.id_of, anchors))
        reference = dict_anchored_peel(graph, frozenset(anchors))
        assert {vertices[vid]: core_n[vid] for vid in range(len(vertices))} == reference.core
        assert tuple(vertices[vid] for vid in order_n) == reference.order

    def test_numpy_peel_empty_graph(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_peel

        core, order = numpy_peel(NumpyGraph.from_graph(Graph()))
        assert core.tolist() == [] and order == []

    def test_numpy_k_core_matches_dict_k_core(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_k_core_ids

        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)], vertices=[0, 1, 2, 3, 9])
        ngraph = NumpyGraph.from_graph(graph)
        for k in range(4):
            members = ngraph.translate(numpy_k_core_ids(ngraph, k).tolist())
            assert members == dict_k_core(graph, k)


class TestAvailabilityReasons:
    """The numpy backend reports *why* it is unavailable, not just that it is."""

    def test_missing_import_reason(self, monkeypatch):
        # The env switch takes precedence, so clear it to probe the
        # import-gate reason itself (the suite may run under
        # REPRO_DISABLE_NUMPY=1 to exercise the fallback path).
        monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
        if numpy_available():
            assert numpy_unavailable_reason() is None
        else:
            assert numpy_unavailable_reason() == "numpy is not installed"

    def test_env_disable_reasons(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert numpy_unavailable_reason() == "disabled via REPRO_DISABLE_NUMPY"

    @pytest.mark.parametrize(
        "value, disables",
        [("0", False), ("false", False), ("", False), ("off", False),
         ("1", True), ("true", True), (" YES ", True), ("on", True)],
    )
    def test_env_switch_parses_like_repro_trace(self, monkeypatch, value, disables):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", value)
        available = importlib.util.find_spec("numpy") is not None and not disables
        assert numpy_available() == available
        assert (numpy_unavailable_reason() is None) == available
        expected = BACKEND_NUMPY if available else BACKEND_DICT
        assert resolve_backend("auto", 100_000) == expected

    def test_get_backend_error_names_the_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        with pytest.raises(ParameterError, match="disabled via REPRO_DISABLE_NUMPY"):
            get_backend(BACKEND_NUMPY)

    def test_disabled_numpy_falls_back_without_warnings(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert resolve_backend("auto", 10**6) == BACKEND_DICT
        get_backend("auto", 10**6)
        assert not recwarn.list
