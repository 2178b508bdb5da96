"""Unit tests for the streaming engine: ingest, cache, queries, checkpoints."""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.anchored.followers import compute_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import ExecutionBackend, get_backend, numpy_available, resolve_backend
from repro.bench.experiments import resolve_profile
from repro.bench.workloads import build_problem
from repro.cores.decomposition import core_numbers
from repro.cores.maintenance import CoreMaintainer
from repro.engine import (
    CacheKey,
    EngineStats,
    IngestBuffer,
    ResultCache,
    StreamingAVTEngine,
    load_checkpoint,
    read_state,
    save_checkpoint,
    write_state,
)
from repro.errors import CheckpointError, ParameterError, SelfLoopError
from repro.graph.datasets import toy_example_graph
from repro.engine.engine import WARM_ALGORITHM
from repro.graph.dynamic import EdgeDelta
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph


def clique_with_tail() -> Graph:
    """K6 minus edge (0, 1), plus a pendant chain 0-10-11.

    The near-clique sits at core 4 (core 5 once (0, 1) is inserted) while the
    chain sits at core 1 — changes inside the dense block are invisible to
    small-k queries, which is what selective invalidation exploits.
    """
    graph = Graph()
    clique = range(6)
    for u in clique:
        for v in clique:
            if u < v and (u, v) != (0, 1):
                graph.add_edge(u, v)
    graph.add_edge(0, 10)
    graph.add_edge(10, 11)
    return graph


# ---------------------------------------------------------------------------
# Ingest buffer
# ---------------------------------------------------------------------------
class TestIngestBuffer:
    def test_coalesces_duplicates(self):
        buffer = IngestBuffer()
        buffer.insert(1, 2)
        buffer.insert(2, 1)  # same undirected edge
        assert buffer.pending_changes == 1
        assert buffer.cancelled == 1

    def test_opposing_pair_keeps_last_operation_without_graph(self):
        buffer = IngestBuffer()
        buffer.insert(1, 2)
        buffer.remove(1, 2)
        delta = buffer.flush()
        assert delta.inserted == ()
        assert delta.removed == ((1, 2),)

    def test_opposing_pair_cancels_against_live_graph(self):
        graph = Graph(edges=[(5, 6)], vertices=[1, 2])
        buffer = IngestBuffer(graph)
        buffer.insert(1, 2)  # edge absent: pending insert
        buffer.remove(1, 2)  # absent edge would stay absent -> both cancel
        assert buffer.is_empty()
        assert buffer.cancelled == 2

    def test_round_trip_that_creates_an_endpoint_is_kept(self):
        graph = Graph(edges=[(5, 6)], vertices=[1])
        buffer = IngestBuffer(graph)
        buffer.insert(1, 2)  # vertex 2 is missing: the insert creates it
        buffer.remove(1, 2)
        assert buffer.pending_changes == 1
        assert buffer.cancelled == 0
        delta = buffer.peek()
        assert delta.inserted == delta.removed == ((1, 2),)
        delta.apply(graph)
        assert graph.has_vertex(2) and not graph.has_edge(1, 2)

    def test_round_trip_then_insert_or_remove_coalesces(self):
        buffer = IngestBuffer(Graph(vertices=[1]))
        buffer.insert(1, 2)
        buffer.remove(1, 2)
        buffer.remove(1, 2)  # the round trip already ends absent
        assert buffer.cancelled == 1
        buffer.insert(1, 2)  # insert, remove, insert nets to the insert
        assert buffer.cancelled == 3
        delta = buffer.flush()
        assert delta.inserted == ((1, 2),) and delta.removed == ()

    def test_remove_then_insert_of_present_edge_cancels(self):
        graph = Graph(edges=[(1, 2)])
        buffer = IngestBuffer(graph)
        buffer.remove(1, 2)
        buffer.insert(1, 2)
        assert buffer.is_empty()

    def test_noop_operations_are_dropped_against_live_graph(self):
        graph = Graph(edges=[(1, 2)])
        buffer = IngestBuffer(graph)
        buffer.insert(1, 2)  # already present
        buffer.remove(3, 4)  # already absent
        assert buffer.is_empty()
        assert buffer.cancelled == 2
        assert buffer.ingested == 2

    def test_extend_and_peek_do_not_clear(self):
        buffer = IngestBuffer()
        buffer.extend(EdgeDelta.from_iterables(inserted=[(1, 2)], removed=[(3, 4)]))
        peeked = buffer.peek()
        assert peeked.num_changes == 2
        assert buffer.pending_changes == 2
        flushed = buffer.flush()
        assert flushed == peeked
        assert buffer.is_empty()


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
def _result(tag: int):
    """A distinguishable stand-in payload (the cache never inspects values)."""
    return GreedyAnchoredKCore(Graph(edges=[(tag, tag + 1)]), 1, 0).select()


class TestResultCache:
    def test_get_put_and_counters(self):
        # The cache keeps no counters; the engine counts hits and misses in
        # its EngineStats from what ``get`` returns.
        cache = ResultCache(capacity=4)
        key = CacheKey(0, 3, 5, "greedy")
        assert cache.get(key) is None
        assert len(cache) == 0
        value = _result(1)
        cache.put(key, value)
        assert cache.get(key) is value
        assert cache.get(CacheKey(1, 3, 5, "greedy")) is None
        assert list(cache.keys()) == [key]

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        first, second, third = (CacheKey(0, k, 1, "greedy") for k in (1, 2, 3))
        cache.put(first, _result(1))
        cache.put(second, _result(2))
        cache.get(first)  # refresh recency: second is now LRU
        cache.put(third, _result(3))
        assert first in cache and third in cache
        assert second not in cache
        assert list(cache.keys()) == [first, third]

    def test_promote_rekeys_surviving_entries(self):
        cache = ResultCache(capacity=8)
        low = CacheKey(0, 2, 1, "greedy")
        high = CacheKey(0, 5, 1, "greedy")
        cache.put(low, _result(1))
        cache.put(high, _result(2))
        promoted, invalidated = cache.promote(0, 1, keep=lambda key: key.k <= 4)
        assert (promoted, invalidated) == (1, 1)
        assert CacheKey(1, 2, 1, "greedy") in cache
        assert CacheKey(0, 2, 1, "greedy") not in cache
        assert len(cache) == 1

    def test_promote_drops_entries_from_older_versions(self):
        cache = ResultCache(capacity=8)
        stale = CacheKey(0, 2, 1, "greedy")
        current = CacheKey(3, 2, 1, "greedy")
        cache.put(stale, _result(1))
        cache.put(current, _result(2))
        cache.promote(3, 4, keep=lambda key: True)
        assert len(cache) == 1
        assert CacheKey(4, 2, 1, "greedy") in cache

    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError):
            ResultCache(capacity=0)


# ---------------------------------------------------------------------------
# Engine: queries and caching
# ---------------------------------------------------------------------------
class TestEngineQueries:
    def test_cold_query_matches_scratch_greedy(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        result = engine.query(3, 2)
        scratch = GreedyAnchoredKCore(toy_graph, 3, 2).select()
        assert result.anchors == scratch.anchors
        assert result.followers == scratch.followers
        assert engine.stats.cold_solves == 1

    @pytest.mark.parametrize("backend", ["dict"] + (["numpy"] if numpy_available() else []))
    def test_a_cold_query_builds_its_snapshot_in_one_build_call(self, backend, monkeypatch):
        # The walk a traced perfbench run makes: every loaded backend class
        # that defines build_core_index is timed as the snapshot build.  So a
        # cold query calls it once, and the snapshot is built inside it.
        get_backend(backend)
        depth = [0]
        builds = []
        pending = [ExecutionBackend]
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if cls is not ExecutionBackend and "build_core_index" in vars(cls):

                def counted(self, graph, _build=vars(cls)["build_core_index"]):
                    builds.append(type(self).__name__)
                    depth[0] += 1
                    try:
                        return _build(self, graph)
                    finally:
                        depth[0] -= 1

                monkeypatch.setattr(cls, "build_core_index", counted)
        snapshots = []
        if backend == "numpy":
            from repro.backends.numpy_backend import NumpyGraph

            for name in ("from_graph", "from_maintainer"):
                monkeypatch.setattr(
                    NumpyGraph,
                    name,
                    lambda *args, _build=getattr(NumpyGraph, name), **kwargs: (
                        snapshots.append(depth[0]) or _build(*args, **kwargs)
                    ),
                )
        engine = StreamingAVTEngine(chung_lu_graph(300, 900, skew=1.2, seed=3), backend=backend)
        engine.query(3, 4, warm=False)
        assert len(builds) == 1
        assert snapshots == ([1] if backend == "numpy" else [])

    def test_repeated_query_is_served_from_cache_without_solver(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        first = engine.query(3, 2)
        invocations = engine.stats.solver_invocations
        second = engine.query(3, 2)
        assert second is first
        assert engine.stats.solver_invocations == invocations
        assert engine.stats.cache_hits == 1

    def test_distinct_parameters_use_distinct_entries(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        engine.query(3, 1)
        engine.query(2, 2)
        assert engine.stats.cache_hits == 0
        assert len(engine.cache) == 3

    def test_update_invalidates_affected_entry(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        engine.ingest_insert(1, 5)  # periphery change: touches low-core region
        engine.query(3, 2)
        assert engine.stats.cache_misses == 2
        assert engine.stats.cache_hits == 0
        assert engine.graph_version == 1

    def test_dense_core_change_keeps_small_k_entries(self):
        engine = StreamingAVTEngine(clique_with_tail())
        engine.query(2, 1)
        engine.ingest_insert(0, 1)  # completes the clique: cores 4 -> 5
        assert engine.graph_version == 0  # not yet flushed
        hit = engine.query(2, 1)
        assert engine.graph_version == 1
        assert engine.stats.cache_hits == 1  # entry was promoted, not evicted
        assert engine.stats.cache_promotions == 1
        assert hit.k == 2

    def test_dense_core_change_invalidates_large_k_entries(self):
        engine = StreamingAVTEngine(clique_with_tail())
        engine.query(5, 1)
        engine.ingest_insert(0, 1)
        engine.query(5, 1)
        assert engine.stats.cache_hits == 0
        assert engine.stats.cache_invalidations == 1

    def test_warm_query_reuses_previous_anchor_set(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        cold = engine.query(3, 2)
        engine.ingest_insert(1, 5)
        warm = engine.query(3, 2)
        assert engine.stats.warm_solves == 1
        assert engine.stats.cold_solves == 1
        assert warm.algorithm == "IncAVT-warm"
        assert len(warm.anchors) <= 2
        # warm answers stay internally consistent with the live graph
        assert set(warm.followers) == compute_followers(engine.graph, 3, warm.anchors)
        assert cold.anchors  # cold pass actually chose something to carry

    def test_exact_query_never_reuses_cached_warm_answer(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        engine.ingest_insert(1, 5)
        warm = engine.query(3, 2)  # heuristic answer now cached
        assert warm.algorithm == "IncAVT-warm"
        exact = engine.query(3, 2, warm=False)
        scratch = GreedyAnchoredKCore(engine.graph, 3, 2).select()
        assert exact.algorithm == scratch.algorithm
        assert exact.anchors == scratch.anchors
        # the upgraded entry serves both modes from now on
        assert engine.query(3, 2) is exact
        assert engine.query(3, 2, warm=False) is exact

    def test_warm_state_map_is_bounded(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph, cache_capacity=16)
        for budget in range(20):
            engine.query(2, budget)
        assert len(engine._warm) <= engine._warm_capacity

    def test_warm_disabled_always_solves_cold(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph, warm_queries=False)
        engine.query(3, 2)
        engine.ingest_insert(1, 5)
        engine.query(3, 2)
        assert engine.stats.cold_solves == 2
        assert engine.stats.warm_solves == 0

    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, [False]])
    def test_non_bool_warm_flags_are_rejected(self, flag):
        # A truthy string used to switch the warm heuristic on for a caller
        # who asked for exact answers.
        graph = chung_lu_graph(300, 900, skew=1.2, seed=3)
        with pytest.raises(ParameterError, match="warm_queries"):
            StreamingAVTEngine(graph, warm_queries=flag)
        with pytest.raises(ParameterError, match="warm_queries"):
            StreamingAVTEngine(graph, warm_queries=None)
        engine = StreamingAVTEngine(graph)
        engine.query(3, 4)
        # Four edges among core-2 vertices: the cached answer goes stale and
        # the warm state survives, so a warm policy would answer warm.
        low = sorted(v for v, c in engine.core_numbers().items() if c <= 2)
        for u, v in list(zip(low[::2], low[1::2]))[:4]:
            engine.ingest_insert(u, v)
        engine.flush()
        with pytest.raises(ParameterError, match="warm"):
            engine.query(3, 4, warm=flag)
        assert engine.query(3, 4, warm=True).algorithm == WARM_ALGORITHM
        assert engine.query(3, 4, warm=False).algorithm != WARM_ALGORITHM

    def test_noop_ingest_does_not_bump_version_or_evict(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        engine.ingest_insert(8, 9)  # edge already present: cancelled in buffer
        engine.query(3, 2)
        assert engine.graph_version == 0
        assert engine.stats.cache_hits == 1
        assert engine.stats.updates_cancelled == 1

    def test_insert_remove_round_trip_cancels_in_buffer(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        engine.ingest_insert(1, 5)
        engine.ingest_remove(1, 5)
        engine.query(3, 2)
        assert engine.graph_version == 0
        assert engine.stats.cache_hits == 1

    def test_a_round_trip_over_partially_ordered_ids_cancels(self):
        # ``<=`` on frozensets is the subset test, under which neither of
        # these two comes first; both orientations must key one edge.
        a, b = frozenset({1}), frozenset({2})
        engine = StreamingAVTEngine(Graph(vertices=[a, b]), batch_size=None)
        engine.ingest_insert(a, b)
        engine.ingest_remove(b, a)
        engine.flush()
        assert not engine.graph.has_edge(a, b)
        assert engine.graph_version == 0

    @pytest.mark.parametrize("batch_size", [1, 2, 64, None])
    def test_vertex_set_does_not_depend_on_batch_size(self, batch_size):
        # An insert→remove round trip to an unknown vertex creates it, as the
        # unbuffered events would, whether or not a flush splits the pair.
        engine = StreamingAVTEngine(Graph(vertices=range(12)), batch_size=batch_size)
        engine.ingest_insert(0, 12)
        engine.ingest_remove(0, 12)
        engine.flush()
        assert engine.graph == Graph(vertices=range(13))
        assert engine.core_numbers() == core_numbers(engine.graph)

    def test_auto_flush_at_batch_size(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph, batch_size=2)
        engine.ingest_insert(1, 5)
        assert engine.pending_updates == 1
        engine.ingest_insert(4, 5)
        assert engine.pending_updates == 0
        assert engine.stats.deltas_applied == 1

    def test_query_flushes_pending_updates_first(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph, batch_size=None)
        engine.ingest_insert(1, 5)
        engine.query(3, 2)
        assert engine.pending_updates == 0
        assert engine.graph.has_edge(1, 5)

    def test_solver_selection_and_validation(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        olak = engine.query(3, 2, solver="olak")
        assert olak.algorithm == "OLAK"
        with pytest.raises(ParameterError):
            engine.query(3, 2, solver="nope")
        with pytest.raises(ParameterError):
            engine.query(0, 2)
        with pytest.raises(ParameterError):
            engine.query(3, -1)
        for k, budget in ((2.5, 2), ("3", 2), (True, 2), (4, 2.5), (3, None)):
            with pytest.raises(ParameterError):
                engine.query(k, budget)
        with pytest.raises(ParameterError):
            StreamingAVTEngine(toy_graph, default_solver="nope")
        # An unhashable name must not escape as a raw TypeError.
        for bad in (["greedy"], {}):
            with pytest.raises(ParameterError, match="unknown solver"):
                StreamingAVTEngine(toy_graph, default_solver=bad)
            with pytest.raises(ParameterError, match="unknown solver"):
                engine.query(2, 1, solver=bad)
        with pytest.raises(ParameterError):
            StreamingAVTEngine(toy_graph, batch_size=0)
        # Fractions must not be accepted (and checkpointed), and strings or
        # bools must not escape as a raw TypeError.
        for bad in (2.5, "3", True):
            with pytest.raises(ParameterError):
                StreamingAVTEngine(toy_graph, batch_size=bad)
            with pytest.raises(ParameterError):
                StreamingAVTEngine(toy_graph, cache_capacity=bad)
        with pytest.raises(ParameterError, match="cache_capacity"):
            StreamingAVTEngine(toy_graph, cache_capacity=0)
        assert StreamingAVTEngine(toy_graph, batch_size=None).pending_updates == 0

    @pytest.mark.parametrize(
        "argument", [{"cache_capacity": 0}, {"cache_capacity": "3"}, {"warm_queries": "no"}]
    )
    def test_bad_arguments_fail_before_the_maintainer_is_built(
        self, toy_graph, monkeypatch, argument
    ):
        def build(*args, **kwargs):
            raise AssertionError("the O(n + m) maintainer was built")

        monkeypatch.setattr("repro.engine.engine.CoreMaintainer", build)
        with pytest.raises(ParameterError, match=next(iter(argument))):
            StreamingAVTEngine(toy_graph, **argument)

    def test_engine_on_empty_graph(self):
        engine = StreamingAVTEngine()
        result = engine.query(2, 1)
        assert result.anchors == ()
        engine.ingest_insert(1, 2)
        engine.ingest_insert(2, 3)
        engine.ingest_insert(1, 3)
        result = engine.query(2, 1)
        assert engine.graph.num_edges == 3
        assert result.k == 2

    def test_maintained_cores_stay_valid_under_stream(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.ingest(EdgeDelta.from_iterables(inserted=[(1, 5), (4, 9)], removed=[(2, 3)]))
        engine.query(3, 2)
        assert engine.core_numbers() == core_numbers(engine.graph)


# ---------------------------------------------------------------------------
# Engine stats
# ---------------------------------------------------------------------------
class TestEngineStats:
    def test_hit_rate_and_snapshot_round_trip(self):
        stats = EngineStats(queries=4, cache_hits=3, cache_misses=1)
        assert stats.hit_rate == pytest.approx(0.75)
        clone = EngineStats.from_snapshot(stats.snapshot())
        assert clone == stats

    def test_snapshot_ignores_unknown_keys(self):
        rows = EngineStats(queries=2).snapshot()
        rows.append({"name": "engine.future_counter", "type": "counter", "value": 9, "labels": {}})
        restored = EngineStats.from_snapshot(rows)
        assert restored == EngineStats(queries=2)
        assert not hasattr(restored, "future_counter")

    def test_mean_latency_paths(self):
        stats = EngineStats(cache_hits=2, hit_seconds=0.4)
        assert stats.mean_latency("hit") == pytest.approx(0.2)
        assert stats.mean_latency("cold") == 0.0
        with pytest.raises(ValueError):
            stats.mean_latency("other")

    def test_summary_mentions_hit_rate(self):
        stats = EngineStats(queries=2, cache_hits=1, cache_misses=1)
        assert "hit rate 50.0%" in stats.summary()

    def test_replay_takes_every_path_and_hits_beat_cold_solves(self):
        """The quick-profile gnutella replay at scale 0.15: one cold solve,
        then per delta a warm refresh and a repeat served from the cache."""
        profile = resolve_profile("quick")
        problem = build_problem(
            "gnutella",
            budget=4,
            num_snapshots=profile.num_snapshots,
            scale=0.15,
            seed=profile.seed,
        )
        evolving = problem.evolving_graph
        engine = StreamingAVTEngine(evolving.base)
        engine.query(problem.k, problem.budget)
        for delta in evolving.deltas:
            engine.ingest(delta)
            engine.query(problem.k, problem.budget)
            engine.query(problem.k, problem.budget)
        stats = engine.stats
        assert stats.cache_hits >= 1
        assert stats.warm_solves >= 1
        assert stats.cold_solves >= 1
        assert stats.mean_latency("hit") < stats.mean_latency("cold")


# ---------------------------------------------------------------------------
# Self-loops at ingest
# ---------------------------------------------------------------------------
class TestSelfLoopIngest:
    @pytest.mark.parametrize("batch_size", [None, 2])
    @pytest.mark.parametrize("loop_vertex", [9, 0])
    def test_self_loop_fails_at_ingest_and_keeps_pending_inserts(
        self, batch_size, loop_vertex
    ):
        engine = StreamingAVTEngine(
            Graph(edges=[(0, 1), (1, 2), (2, 0)], vertices=range(10)),
            batch_size=batch_size,
        )
        first = engine.query(2, 1, warm=False)
        assert first.anchored_core_size == 3
        for u, v in [(3, 4), (4, 5), (5, 3)]:
            engine.ingest_insert(u, v)
        pending = engine.pending_updates
        with pytest.raises(SelfLoopError):
            engine.ingest_insert(loop_vertex, loop_vertex)
        assert engine.pending_updates == pending
        if batch_size is None:
            assert pending == 3  # all three inserts are still buffered
        answer = engine.query(2, 1, warm=False)
        expected = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], vertices=range(10)
        )
        scratch = GreedyAnchoredKCore(expected, 2, 1).select()
        assert engine.graph == expected
        assert answer.anchors == scratch.anchors
        assert answer.followers == scratch.followers
        assert answer.anchored_core_size == scratch.anchored_core_size == 6

    def test_delta_with_a_self_loop_buffers_nothing(self):
        engine = StreamingAVTEngine(Graph(edges=[(0, 1)]), batch_size=None)
        delta = EdgeDelta.from_iterables(inserted=[(1, 2), (3, 3)], removed=[(0, 1)])
        with pytest.raises(SelfLoopError):
            engine.ingest(delta)
        assert engine.pending_updates == 0
        assert engine.stats.updates_ingested == 0

    def test_removing_a_self_loop_is_a_counted_noop(self):
        engine = StreamingAVTEngine(Graph(edges=[(0, 1)]), batch_size=None)
        engine.ingest_remove(1, 1)
        assert engine.pending_updates == 0
        assert engine.stats.updates_cancelled == 1


# ---------------------------------------------------------------------------
# Unhashable endpoints at ingest
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "owner, method, args, name",
    [
        ("engine", "ingest_insert", ([1], 2), "u"),
        ("engine", "ingest_insert", (1, {2}), "v"),
        ("engine", "ingest_remove", ([1], 2), "u"),
        ("engine", "ingest", (EdgeDelta(inserted=((1, 4), ([1], 2))),), "u"),
        ("engine", "ingest", (EdgeDelta(inserted=((1, 4),), removed=((1, [2]),)),), "v"),
        ("maintainer", "insert_edge", ([1], 2), "u"),
        ("maintainer", "remove_edge", (1, [2]), "v"),
    ],
)
def test_unhashable_endpoints_fail_at_the_door(owner, method, args, name):
    """An unhashable endpoint raises :class:`ParameterError` naming the
    argument, at the engine's ingest calls (a whole delta buffers nothing)
    and at the maintainer's single-edge updates, and changes nothing."""
    graph = Graph(edges=[(1, 2), (2, 3), (3, 1)])
    engine = StreamingAVTEngine(graph, batch_size=None)
    maintainer = CoreMaintainer(graph)
    target = engine if owner == "engine" else maintainer
    with pytest.raises(ParameterError, match=f"^{name}: a vertex must be hashable"):
        getattr(target, method)(*args)
    assert engine.pending_updates == 0
    assert engine.stats.updates_ingested == 0
    assert engine.graph == graph and maintainer.graph == graph


# ---------------------------------------------------------------------------
# Checkpoint / restore
# ---------------------------------------------------------------------------
class TestCheckpoint:
    def test_state_round_trip_preserves_answers(self, toy_graph):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        engine.ingest_insert(1, 5)
        before = engine.query(3, 2)
        resumed = StreamingAVTEngine.from_state(engine.to_state())
        after = resumed.query(3, 2)
        assert after.anchors == before.anchors
        assert after.followers == before.followers
        assert resumed.graph_version == engine.graph_version
        assert resumed.graph == engine.graph

    def test_restore_serves_cached_answer_without_solver(self, toy_graph, tmp_path):
        engine = StreamingAVTEngine(toy_graph)
        cached = engine.query(3, 2)
        path = tmp_path / "engine.ckpt"
        engine.checkpoint(path)
        resumed = StreamingAVTEngine.restore(path)
        answer = resumed.query(3, 2)
        assert answer.anchors == cached.anchors
        assert resumed.stats.solver_invocations == engine.stats.solver_invocations
        assert resumed.stats.checkpoints_restored == 1
        assert engine.stats.checkpoints_saved == 1

    def test_checkpoint_flushes_pending_updates(self, toy_graph, tmp_path):
        engine = StreamingAVTEngine(toy_graph, batch_size=None)
        engine.ingest_insert(1, 5)
        path = tmp_path / "engine.ckpt"
        save_checkpoint(engine, path)
        resumed = load_checkpoint(path)
        assert resumed.graph.has_edge(1, 5)
        assert resumed.pending_updates == 0

    def test_restore_overrides_capacity(self, toy_graph, tmp_path):
        engine = StreamingAVTEngine(toy_graph, cache_capacity=8)
        path = tmp_path / "engine.ckpt"
        engine.checkpoint(path)
        resumed = StreamingAVTEngine.restore(path, cache_capacity=2)
        assert resumed.cache.capacity == 2
        with pytest.raises(ParameterError):
            StreamingAVTEngine.restore(path, bogus_option=1)

    def test_missing_and_corrupt_files_raise_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            read_state(tmp_path / "absent.ckpt")
        garbled = tmp_path / "garbled.ckpt"
        garbled.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            read_state(garbled)
        bad_protocol = tmp_path / "bad_protocol.ckpt"
        bad_protocol.write_bytes(b"\x80garbage")  # pickle reports ValueError here
        with pytest.raises(CheckpointError):
            read_state(bad_protocol)
        wrong_payload = tmp_path / "wrong.ckpt"
        with open(wrong_payload, "wb") as handle:
            pickle.dump({"magic": "something-else"}, handle)
        with pytest.raises(CheckpointError):
            read_state(wrong_payload)

    def test_unsupported_format_raises(self, tmp_path):
        path = tmp_path / "future.ckpt"
        with open(path, "wb") as handle:
            pickle.dump(
                {"magic": "repro-engine-checkpoint", "format": 999, "state": {}}, handle
            )
        with pytest.raises(CheckpointError):
            read_state(path)

    def test_malformed_state_raises(self):
        with pytest.raises(CheckpointError):
            StreamingAVTEngine.from_state({"vertices": []})

    def test_write_state_round_trips(self, tmp_path):
        path = tmp_path / "raw.ckpt"
        write_state({"hello": [1, 2, 3]}, path)
        assert read_state(path) == {"hello": [1, 2, 3]}

    def test_unpicklable_state_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        with pytest.raises(CheckpointError):
            write_state({"vertex": lambda: None}, path)
        assert not path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_engine_checkpoint_and_restore_failures_raise_checkpoint_error(
        self, toy_graph, tmp_path
    ):
        engine = StreamingAVTEngine(toy_graph)
        engine.query(3, 2)
        with pytest.raises(CheckpointError):
            engine.checkpoint(tmp_path / "no-such-dir" / "engine.ckpt")
        with pytest.raises(CheckpointError):
            StreamingAVTEngine.restore(tmp_path / "missing.ckpt")


class TestCheckpointUnavailableBackendFallback:
    """A checkpoint stores no backend, so none can be unavailable: a restore
    runs on the ``backend=`` it is given, ``"auto"`` by default."""

    @pytest.mark.parametrize("stored", ["numpy", "sharded", 5])
    def test_a_stored_backend_is_ignored(self, tmp_path, toy_graph, monkeypatch, stored):
        """A format-3 file in which an older writer left a ``backend`` key
        restores like any other, with no warning: on the backend ``auto``
        picks in this process, or on the ``backend=`` given."""
        engine = StreamingAVTEngine(toy_graph, backend="dict", batch_size=None)
        engine.query(3, 2)
        engine.ingest_insert(1, 5)
        cached = engine.query(3, 2)
        state = engine.to_state()
        assert "backend" not in state
        state["backend"] = stored
        if stored == "numpy":
            # As if written on a host with numpy and restored on one without.
            monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        elif stored == "sharded":
            # The shape older versions wrote: a backend configuration next to
            # the name, and degradation counters among the stats.
            state["backend_config"] = {"num_shards": 4, "partitioner": "hash"}
            state["stats"] = list(state["stats"]) + [
                {"name": f"engine.{name}", "type": "counter", "value": 1, "labels": {}}
                for name in ("degradations", "recovery_probes", "recoveries")
            ]
        path = tmp_path / "older.ckpt"
        write_state(state, path)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restored = StreamingAVTEngine.restore(path)
            on_dict = StreamingAVTEngine.restore(path, backend="dict")
        assert restored.backend == resolve_backend("auto")
        assert on_dict.backend == "dict"
        for resumed in (restored, on_dict):
            assert resumed.graph_version == engine.graph_version
            assert resumed.core_numbers() == engine.core_numbers()
            invocations = resumed.stats.solver_invocations
            answer = resumed.query(3, 2)
            assert resumed.stats.solver_invocations == invocations  # cache hit
            assert answer.anchors == cached.anchors
            assert answer.followers == cached.followers
            assert "backend" not in resumed.to_state()
        # A bad backend= is the caller's parameter, not a damaged file.
        with pytest.raises(ParameterError, match="unknown backend"):
            StreamingAVTEngine.restore(path, backend="fpga")

    @pytest.mark.parametrize("flag", ["no", "false", 0, 1, None])
    def test_malformed_warm_queries_is_a_checkpoint_error(self, tmp_path, toy_graph, flag):
        engine = StreamingAVTEngine(toy_graph, batch_size=None)
        state = engine.to_state()
        state["warm_queries"] = flag
        with pytest.raises(CheckpointError, match="malformed engine state"):
            StreamingAVTEngine.from_state(state)
        # So a restore skips the damaged file for the intact rotation ...
        path = tmp_path / "engine.ckpt"
        engine.checkpoint(path)
        engine.checkpoint(path, keep=2)
        write_state(state, path)
        restored = load_checkpoint(path, fallback=True)
        assert restored.core_numbers() == engine.core_numbers()
        # ... while an explicit override is the caller's bad parameter.
        with pytest.raises(ParameterError, match="warm_queries"):
            StreamingAVTEngine.restore(path.with_name("engine.ckpt.1"), warm_queries=flag)
        assert StreamingAVTEngine.restore(path, warm_queries=False).to_state()[
            "warm_queries"
        ] is False
