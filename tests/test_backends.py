"""Unit tests for the execution-backend protocol, registry and auto policy."""

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
    available_backends,
    backend_availability,
    backend_info,
    get_backend,
    numpy_available,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.backends import registry as backend_registry
from repro.backends.dict_backend import DictBackend, dict_anchored_peel, dict_k_core
from repro.engine import StreamingAVTEngine
from repro.errors import ParameterError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")


def _expected_auto_winner() -> str:
    """What ``auto`` should pick on an amortised workload of any size."""
    if numpy_available():
        return BACKEND_NUMPY
    return BACKEND_DICT


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway backends without leaking them."""
    before = dict(backend_registry._REGISTRY)
    instances = dict(backend_registry._INSTANCES)
    yield
    backend_registry._REGISTRY.clear()
    backend_registry._REGISTRY.update(before)
    backend_registry._INSTANCES.clear()
    backend_registry._INSTANCES.update(instances)


class TestRegistry:
    def test_builtins_are_registered(self):
        assert registered_backends() == (BACKEND_DICT, BACKEND_NUMPY)

    def test_available_backends_reflects_numpy_gate(self):
        names = available_backends()
        assert BACKEND_DICT in names
        assert (BACKEND_NUMPY in names) == numpy_available()

    def test_backend_info_rows(self):
        rows = {row["name"]: row for row in backend_info()}
        assert set(rows[BACKEND_DICT]) == {"name", "available", "reason"}
        assert rows[BACKEND_DICT]["available"]
        assert list(rows) == list(registered_backends())

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

    def test_duplicate_registration_raises_unless_replaced(self, scratch_registry):
        register_backend("scratch", DictBackend)
        with pytest.raises(ParameterError):
            register_backend("scratch", DictBackend)
        register_backend("scratch", DictBackend, replace=True)

    def test_auto_name_is_reserved(self):
        with pytest.raises(ParameterError):
            register_backend("auto", DictBackend)

    def test_unavailable_backend_rejected_by_name_and_skipped_by_auto(
        self, scratch_registry
    ):
        register_backend("vapour", DictBackend, is_available=lambda: False)
        assert "vapour" not in available_backends()
        with pytest.raises(ParameterError):
            get_backend("vapour")
        assert resolve_backend("auto", 10**6) != "vapour"

    def test_availability_is_probed_even_for_cached_instances(self, scratch_registry):
        available = True
        register_backend("flaky", DictBackend, is_available=lambda: available)
        assert get_backend("flaky") is get_backend("flaky")  # instance cached
        available = False
        with pytest.raises(ParameterError):
            get_backend("flaky")

    def test_custom_backend_usable_end_to_end(self, scratch_registry):
        class TracingBackend(DictBackend):
            name = "tracing"
            index_builds = 0

            def build_core_index(self, graph):
                TracingBackend.index_builds += 1
                return super().build_core_index(graph)

        register_backend("tracing", TracingBackend)
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        result = GreedyAnchoredKCore(graph, 2, 1, backend="tracing").select()
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

    def test_custom_backends_are_only_used_by_name(self, scratch_registry):
        register_backend("custom", DictBackend)
        assert resolve_backend("auto", 10**6) == _expected_auto_winner()
        assert resolve_backend("custom", 10**6) == "custom"

    def test_unknown_workload_raises(self):
        with pytest.raises(ParameterError):
            resolve_backend("auto", 10, workload="batch")

    def test_korder_with_supplied_decomposition_stays_on_dict_under_auto(
        self, monkeypatch
    ):
        """A lone deg+ pass is one-shot work: auto must not build a snapshot."""
        from repro.cores.decomposition import core_decomposition
        from repro.cores.korder import KOrder
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(i, i + 1) for i in range(100)])
        decomposition = core_decomposition(graph, backend="dict")

        def boom(*args, **kwargs):
            raise AssertionError("snapshot built for a one-shot deg+ pass")

        monkeypatch.setattr(CompactGraph, "from_graph", classmethod(boom))
        korder = KOrder(graph, decomposition=decomposition, backend="auto")
        assert korder.remaining_degree(0) == 1


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

    def test_checkpoint_with_registered_backend_instance_round_trips(
        self, tmp_path, scratch_registry
    ):
        class AdoptedBackend(DictBackend):
            name = "adopted"

        register_backend("adopted", AdoptedBackend)
        engine = StreamingAVTEngine(backend=AdoptedBackend(), batch_size=None)
        engine.ingest_insert(0, 1)
        engine.flush()
        path = tmp_path / "adopted.ckpt"
        engine.checkpoint(path)
        restored = StreamingAVTEngine.restore(path)
        assert restored.backend == "adopted"
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
        from repro.backends.numpy_backend import NumpyGraph
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(1, 2), (2, 3)], vertices=[1, 2, 3, 99])
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        ngraph = NumpyGraph(cgraph)
        assert ngraph.interner is cgraph.interner
        assert ngraph.indptr.tolist() == cgraph.indptr
        assert ngraph.indices.tolist() == cgraph.indices
        assert ngraph.num_vertices == 4 and ngraph.num_edges == 2
        assert ngraph.row.shape[0] == 2 * graph.num_edges

    def test_numpy_peel_matches_dict_peel(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_peel

        graph = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)],
            vertices=list(range(7)) + ["lonely"],
        )
        ngraph = NumpyGraph.from_graph(graph, ordered=True)
        vertices = ngraph.interner.vertices
        core_n, order_n = numpy_peel(ngraph, anchor_ids=[ngraph.interner.id_of(0)])
        reference = dict_anchored_peel(graph, frozenset({0}))
        assert {vertices[vid]: core_n[vid] for vid in range(len(vertices))} == reference.core
        assert tuple(vertices[vid] for vid in order_n) == reference.order

    def test_numpy_peel_empty_graph(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_peel

        core, order = numpy_peel(NumpyGraph.from_graph(Graph()))
        assert core.tolist() == [] and order == []

    def test_numpy_k_core_matches_dict_k_core(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_k_core_ids

        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)], vertices=[0, 1, 2, 3, 9])
        ngraph = NumpyGraph.from_graph(graph, ordered=False)
        for k in range(4):
            members = ngraph.interner.translate(numpy_k_core_ids(ngraph, k).tolist())
            assert members == dict_k_core(graph, k)


class TestAvailabilityReasons:
    """The registry reports *why* a tier is skipped, not just that it is."""

    def test_available_backends_report_no_reason(self):
        report = backend_availability()
        assert report[BACKEND_DICT] is None

    def test_missing_import_reason(self, monkeypatch):
        # The env switch takes precedence, so clear it to probe the
        # import-gate reason itself (the suite may run under
        # REPRO_DISABLE_NUMPY=1 to exercise the fallback path).
        monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
        report = backend_availability()
        if numpy_available():
            assert report[BACKEND_NUMPY] is None
        else:
            assert report[BACKEND_NUMPY] == "numpy is not installed"

    def test_env_disable_reasons(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        report = backend_availability()
        assert report[BACKEND_NUMPY] == "disabled via REPRO_DISABLE_NUMPY"

    @pytest.mark.parametrize(
        "value, disables",
        [("0", False), ("false", False), ("", False), ("off", False),
         ("1", True), ("true", True), (" YES ", True), ("on", True)],
    )
    def test_env_switch_parses_like_repro_trace(self, monkeypatch, value, disables):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", value)
        available = importlib.util.find_spec("numpy") is not None and not disables
        assert numpy_available() == available
        assert (backend_availability()[BACKEND_NUMPY] is None) == available
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

    def test_generic_reason_without_provider(self, scratch_registry):
        register_backend("vapourware", DictBackend, is_available=lambda: False)
        assert backend_availability()["vapourware"] == "a runtime dependency is missing"

    def test_backend_info_includes_reason_column(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        rows = {row["name"]: row for row in backend_info()}
        assert rows[BACKEND_NUMPY]["reason"] == "disabled via REPRO_DISABLE_NUMPY"
        assert rows[BACKEND_DICT]["reason"] is None
