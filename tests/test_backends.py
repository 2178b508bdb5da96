"""Unit tests for the execution-backend protocol, backend lookup and the auto policy."""

from __future__ import annotations

import importlib.util

import pytest

from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import (
    BACKEND_DICT,
    BACKEND_NUMPY,
    CoreIndexKernel,
    ExecutionBackend,
    get_backend,
    numpy_available,
    numpy_unavailable_reason,
    resolve_backend,
)
from repro.backends import _numpy_installed
from repro.backends.dict_backend import DictBackend, dict_anchored_peel
from repro.engine import StreamingAVTEngine
from repro.errors import ParameterError, VertexNotFoundError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")


def _expected_auto_winner() -> str:
    """What ``auto`` should pick, for any work at any size."""
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
        from repro.anchored.followers import compute_followers

        graph = Graph(edges=[(0, 1), (1, 2), (2, 0)])
        # Unhashable values must not escape as a raw TypeError.
        for value in ("warp", None, 3, ["dict"], {"dict"}):
            with pytest.raises(ParameterError):
                get_backend(value)
            with pytest.raises(ParameterError):
                resolve_backend(value, 0)
            with pytest.raises(ParameterError):
                GreedyAnchoredKCore(graph, 2, 1, backend=value).select()
            # compute_followers reads no backend, but checks the name on
            # both paths.
            for k_core_vertices in (None, {0, 1, 2}):
                with pytest.raises(ParameterError):
                    compute_followers(graph, 2, [0], k_core_vertices, backend=value)

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

    def test_the_protocol_holds_only_what_a_backend_changes(self):
        """The k-core cascade is not a backend kernel: a backend implements
        the full peel and the index kernel, and may bind to a maintainer."""
        assert ExecutionBackend.__abstractmethods__ == frozenset(
            {"decompose", "build_core_index"}
        )
        assert not hasattr(ExecutionBackend, "k_core")

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
        """One rule: numpy whenever it is available, whatever the size."""
        expected = _expected_auto_winner()
        assert resolve_backend("auto", num_vertices) == expected
        assert resolve_backend("auto") == expected
        assert get_backend("auto", num_vertices).name == expected

    def test_explicit_names_bypass_the_policy(self):
        assert resolve_backend("dict", 10**9) == BACKEND_DICT
        assert resolve_backend("numpy", 1) == BACKEND_NUMPY

    def test_one_shot_callers_build_no_snapshot_under_auto(self, monkeypatch):
        """The k-core is one cascade over the adjacency-set graph, on no
        backend: it builds no snapshot, whatever ``auto`` picks."""
        from repro.anchored.followers import anchored_k_core, compute_followers
        from repro.backends.numpy_backend import NumpyGraph
        from repro.cores.decomposition import k_core

        graph = Graph(edges=[(i, i + 1) for i in range(100)])

        def boom(*args, **kwargs):
            raise AssertionError("snapshot built for a k-core cascade")

        # Every numpy snapshot, from a graph or a maintainer, is constructed
        # here.
        monkeypatch.setattr(NumpyGraph, "__init__", boom)
        assert k_core(graph, 1) == set(graph.vertices())
        # The cascade peels the path from its far end back to vertex 1;
        # the anchor keeps itself.
        assert anchored_k_core(graph, 2, [0]) == {0}
        assert compute_followers(graph, 1, [0], backend="numpy") == set()


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

    def test_custom_backend_instance_checkpoints_and_restores(self, tmp_path):
        """The state names no backend, so an engine on any instance can be
        checkpointed, and the restore runs on the ``backend=`` it is given."""

        class OrphanBackend(DictBackend):
            name = "orphan"

        engine = StreamingAVTEngine(backend=OrphanBackend(), batch_size=None)
        engine.ingest(self._growth_delta(8))
        cached = engine.query(k=1, budget=1)
        path = tmp_path / "orphan.ckpt"
        engine.checkpoint(path)
        assert "backend" not in engine.to_state()
        restored = StreamingAVTEngine.restore(path)
        assert restored.backend == _expected_auto_winner()
        assert restored.core_numbers() == engine.core_numbers()
        assert restored.query(k=1, budget=1) == cached
        orphan = OrphanBackend()
        assert StreamingAVTEngine.restore(path, backend=orphan).backend == "orphan"

    def test_checkpoint_with_registered_backend_instance_round_trips(self, tmp_path):
        engine = StreamingAVTEngine(backend=get_backend("dict"), batch_size=None)
        engine.ingest_insert(0, 1)
        engine.flush()
        path = tmp_path / "dict.ckpt"
        engine.checkpoint(path)
        assert "backend" not in engine.to_state()
        restored = StreamingAVTEngine.restore(path, backend="dict")
        assert restored.backend == BACKEND_DICT
        assert "backend" not in restored.to_state()
        assert restored.core_numbers() == engine.core_numbers()
        assert StreamingAVTEngine.restore(path).backend == _expected_auto_winner()

    def test_restored_engine_re_resolves_from_checkpoint(self, tmp_path):
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        engine.ingest(self._growth_delta(64))
        engine.flush()
        path = tmp_path / "grown.ckpt"
        engine.checkpoint(path)
        restored = StreamingAVTEngine.restore(path)
        # The checkpoint stores no backend; the restored engine resolves
        # its default, "auto", in the restoring process.
        assert restored.backend == engine.backend


def every_row(graph):
    """A bare snapshot of ``graph`` with every row in its CSR, as
    ``decompose`` builds it."""
    import numpy as np

    from repro.backends.numpy_backend import NumpyGraph

    ngraph = NumpyGraph.from_graph(graph)
    ngraph.flatten(np.ones(ngraph.num_vertices, dtype=bool))
    return ngraph


@needs_numpy
class TestNumpyKernels:
    def test_numpy_graph_shares_interner_contract(self):
        """A bare snapshot takes the graph's iteration order (ids by
        position, no sort) and its own neighbour sets, and flattens nothing:
        ``rows[vid]`` translates a row the CSR does not hold and slices one
        it does."""
        import numpy as np

        from repro.backends.numpy_backend import NumpyGraph

        graph = Graph(edges=[(3, 2), (2, "a"), (-1, 3)], vertices=[3, 2, "a", 99, -1])
        ngraph = NumpyGraph.from_graph(graph)
        vertices = list(graph.vertices())
        assert ngraph.vertices == vertices
        assert ngraph.ids == {vertex: vid for vid, vertex in enumerate(vertices)}
        assert all(
            ngraph.rows.sets[vid] is graph.neighbors(vertex) for vid, vertex in enumerate(vertices)
        )
        assert ngraph.indptr.tolist() == [0] * 6 and ngraph.indices.size == 0
        keep = np.array([True, False, True, False, False])
        for flattened in (False, True):
            if flattened:
                ngraph.flatten(keep)
            indptr, indices = ngraph.indptr.tolist(), ngraph.indices.tolist()
            assert indptr == ngraph.rows.indptr and indices == ngraph.rows.indices
            for vid, vertex in enumerate(vertices):
                row = indices[indptr[vid] : indptr[vid + 1]]
                assert row == (ngraph.rows[vid] if flattened and keep[vid] else [])
                assert ngraph.translate(ngraph.rows[vid]) == graph.neighbors(vertex)
                assert len(ngraph.rows[vid]) == graph.degree(vertex)
        assert ngraph.indptr.tolist() == [0, 2, 2, 3, 3, 3]
        assert ngraph.num_vertices == 5 and ngraph.num_edges == 3
        assert ngraph.translate([0, 2]) == {3, "a"}
        with pytest.raises(VertexNotFoundError):
            ngraph.id_of("missing")

    def test_numpy_peel_matches_dict_peel(self):
        from repro.backends.numpy_backend import numpy_peel

        # Ids follow the graph's iteration order, the reverse of tie-break
        # order, so the shell ties and the anchor tail are broken by key.
        graph = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)],
            vertices=["lonely"] + list(range(6, -1, -1)),
        )
        ngraph = every_row(graph)
        vertices = ngraph.vertices
        anchors = [6, 0]
        core_n, order_n = numpy_peel(ngraph, anchor_ids=map(ngraph.id_of, anchors))
        reference = dict_anchored_peel(graph, frozenset(anchors))
        assert {vertices[vid]: core_n[vid] for vid in range(len(vertices))} == reference.core
        assert tuple(vertices[vid] for vid in order_n) == reference.order

    def test_numpy_peel_empty_graph(self):
        from repro.backends.numpy_backend import numpy_peel

        core, order = numpy_peel(every_row(Graph()))
        assert core.tolist() == [] and order == []


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

    def test_numpy_is_probed_once_and_the_switch_read_every_call(self, monkeypatch):
        probes = []
        find_spec = importlib.util.find_spec

        def counting_find_spec(name, *args, **kwargs):
            probes.append(name)
            return find_spec(name, *args, **kwargs)

        monkeypatch.setattr(importlib.util, "find_spec", counting_find_spec)
        monkeypatch.delenv("REPRO_DISABLE_NUMPY", raising=False)
        _numpy_installed.cache_clear()
        installed = find_spec("numpy") is not None
        for _ in range(1000):
            assert numpy_available() == installed
            assert resolve_backend("auto") == (BACKEND_NUMPY if installed else BACKEND_DICT)
        for value, disables in (("1", True), ("0", False), ("on", True)):
            monkeypatch.setenv("REPRO_DISABLE_NUMPY", value)
            assert numpy_available() == (installed and not disables)
            assert resolve_backend("auto") == (
                BACKEND_NUMPY if installed and not disables else BACKEND_DICT
            )
        assert probes.count("numpy") == 1

    def test_get_backend_error_names_the_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        with pytest.raises(ParameterError, match="disabled via REPRO_DISABLE_NUMPY"):
            get_backend(BACKEND_NUMPY)

    def test_disabled_numpy_falls_back_without_warnings(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        assert resolve_backend("auto", 10**6) == BACKEND_DICT
        get_backend("auto", 10**6)
        assert not recwarn.list
