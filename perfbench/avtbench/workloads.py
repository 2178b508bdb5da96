"""The three workloads: paper-style tracking, engine replay, engine ingest.

Every workload is one client in a closed loop: it waits for each call to
return before making the next.  All inputs come from the dataset and the
seed (``track`` replays one fixed stream, see :data:`TRACK_STREAM`) and are
built before any timed region.  The amount of work is fixed by
``(seed, seconds)`` — ``seconds`` scales it so a run measures about that
long on a 2-CPU machine — so the answer digests of two builds can be
compared bit for bit.  Correctness checks run outside the timed regions,
with the layer tracer paused, against references that do not touch the
measured objects.  The machine-speed probe runs between timed regions.
"""

from __future__ import annotations

import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple

from repro.anchored.followers import compute_followers as reference_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.avt.incremental import IncAVTTracker
from repro.avt.problem import AVTProblem
from repro.avt.trackers import GreedyTracker
from repro.cores.decomposition import core_numbers as reference_core_numbers
from repro.engine.engine import StreamingAVTEngine
from repro.errors import ReproError
from repro.graph.dynamic import EdgeDelta, EvolvingGraph
from repro.graph.static import Graph

from avtbench.inputs import EdgeStream, build_graph, dataset_edges
from avtbench.layers import LayerTracer
from avtbench.results import Named, WorkloadRun
from avtbench.speed import SpeedProbe

#: The reference oracle of every exact answer.
ORACLE_BACKEND = "dict"

clock = time.perf_counter


@dataclass
class Context:
    """What a workload receives: seed, length, a scratch directory, probes."""

    seed: int
    seconds: float
    work_dir: Path
    tracer: Optional[LayerTracer] = None
    speed: SpeedProbe = field(default_factory=SpeedProbe)

    def unobserved(self) -> ContextManager[None]:
        """Keep the benchmark's own checks out of the layer numbers."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def snapshot_totals(self) -> Tuple[float, float, float, int]:
        """Running totals a tracked snapshot is split by: top-level wrapped
        seconds, ``apply_delta`` and ``compute_followers`` seconds, index builds."""
        if self.tracer is None:
            return (0.0, 0.0, 0.0, 0)
        layers = self.tracer.layers
        return (
            self.tracer.top_level_seconds,
            layers["cores.apply_delta"].seconds,
            layers["anchored.compute_followers"].seconds,
            layers["anchored.index_build"].calls,
        )


def _stream_rng(seed: int, instance: int = 0) -> random.Random:
    """The generator of one seeded edge stream of a run."""
    return random.Random(f"{seed}/{instance}")


def _followers_key(followers: Any) -> List[int]:
    return sorted(followers)


def _oracle_greedy(graph: Graph, k: int, budget: int):
    return GreedyAnchoredKCore(graph, k, budget, backend=ORACLE_BACKEND).select()


def _same_answer(result: Any, reference: Any) -> bool:
    return tuple(result.anchors) == tuple(reference.anchors) and set(result.followers) == set(reference.followers)


def _feasible(graph: Graph, k: int, budget: int, result: Any) -> bool:
    """Anchors are graph vertices within budget, followers are theirs exactly."""
    anchors = tuple(result.anchors)
    if len(anchors) > budget or not all(graph.has_vertex(anchor) for anchor in anchors):
        return False
    return set(result.followers) == reference_followers(graph, k, anchors, backend=ORACLE_BACKEND)


def _gain_cache_hit_ratio(results: Sequence[Any]) -> float:
    """``SolverStats.cache_hits / candidates_evaluated`` over exact Greedy answers."""
    hits = sum(result.stats.cache_hits for result in results)
    evaluated = sum(result.stats.candidates_evaluated for result in results)
    return hits / evaluated if evaluated else 0.0


# ----------------------------------------------------------------------
# track: GreedyTracker and IncAVTTracker over perturbed snapshots
# ----------------------------------------------------------------------
#: The paper's anchored k-core parameters, ``k`` and the budget ``l``.
TRACK_K, TRACK_BUDGET = 4, 8
#: GreedyTracker solves the first snapshots of the sequence in three rounds:
#: before IncAVT, halfway through it and after it, so that a slow stretch of
#: the machine meets one round, not all.
GREEDY_SNAPSHOTS = 3
#: The generator of ``track``'s edge stream.  Unlike the engine workloads,
#: ``track`` replays one fixed sequence for every ``--seed``, the way the
#: paper replays a fixed dataset: about one IncAVT snapshot in seven touches
#: an anchor's neighbourhood and costs five times the median, and across six
#: seeded streams the number of such snapshots ranged from 16 to 39 of 179,
#: which moved the total IncAVT time by up to a third.  This stream has 26 of
#: them, so the tail lands inside that class.
TRACK_STREAM = "track-stream"


@dataclass(frozen=True)
class TrackConfig:
    num_vertices: int = 50_000
    num_edges: int = 150_000
    #: IncAVT tracks this many snapshots per second of ``--seconds``.
    snapshots_per_second: float = 9.0
    #: Graph builds, the set-up samples.  Each, like each Greedy round,
    #: starts on a freshly collected heap (see ``_set_up_engine``).
    setups: int = 7
    #: Follower sets are re-derived on every snapshot ``t`` with
    #: ``t % check_every == 1``.
    check_every: int = 50


class _StampedDeltas(list):
    """The delta list of a problem, noting when the tracker first asks for each delta.

    A tracker asks for delta ``t - 1`` when it starts snapshot ``t``, so the
    stamps split one ``track()`` call into per-snapshot wall times without
    wrapping anything in the library.  The speed probe runs between two
    snapshots, outside both.
    """

    def __init__(
        self, deltas: Sequence[EdgeDelta], ctx: Context, interludes: Optional[Dict[int, Callable[[], None]]] = None
    ) -> None:
        super().__init__(deltas)
        self._ctx = ctx
        #: Work to run before snapshot ``t`` starts, keyed by ``t - 1``.
        self._interludes = interludes or {}
        self._asked = 0
        self._open: Tuple[float, Tuple[float, ...]] = (0.0, ())
        #: Per snapshot: ``(start, seconds, what ``snapshot_totals`` grew by)``.
        self.spans: List[Tuple[float, float, Tuple[float, ...]]] = []

    def begin(self) -> None:
        self._open = (clock(), self._ctx.snapshot_totals())

    def end(self) -> None:
        finished = clock()
        totals = self._ctx.snapshot_totals()
        start, totals_at_start = self._open
        spent = tuple(after - before for before, after in zip(totals_at_start, totals))
        self.spans.append((start, finished - start, spent))

    def __getitem__(self, index: Any) -> Any:
        if index == self._asked:
            self._asked += 1
            self.end()
            self._ctx.speed.tick()
            if index in self._interludes:
                self._interludes[index]()
                self._ctx.speed.tick()
            self.begin()
        return list.__getitem__(self, index)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    def checked_spans(self, run: WorkloadRun, tracked: Any) -> List[Tuple[float, float, Tuple[float, ...]]]:
        """The spans, one per tracked snapshot, each checked against the library's own time.

        A span must cover the ``stats.runtime_seconds`` the library reports
        for its snapshot.  A tracker that read its deltas ahead of its work
        would stamp near-empty spans; each counts as a failure, so a new
        access pattern reads as an error, not as a speed-up.
        """
        if len(self.spans) != len(tracked):
            raise RuntimeError(f"{len(self.spans)} delta stamps for {len(tracked)} tracked snapshots")
        for (_, seconds, _), snapshot in zip(self.spans, tracked):
            run.check(seconds >= snapshot.result.stats.runtime_seconds)
        return self.spans


def run_track(ctx: Context, config: TrackConfig) -> WorkloadRun:
    """Greedy on the first snapshots of a sequence, IncAVT on the whole of it."""
    run = WorkloadRun(
        "track",
        roles={"setup": "setup", "op": "incavt_snapshot", "exact": "greedy_snapshot", "rate": ("edge_changes", ("incavt_snapshot",))},
    )
    n, k, budget = config.num_vertices, TRACK_K, TRACK_BUDGET
    snapshots = max(GREEDY_SNAPSHOTS + 2, round(ctx.seconds * config.snapshots_per_second))
    edges = dataset_edges(n, config.num_edges)
    deltas = EdgeStream(n, edges, random.Random(TRACK_STREAM)).deltas(snapshots - 1)
    for _ in range(config.setups):
        gc.collect()
        ctx.speed.tick()
        started = clock()
        base = build_graph(n, edges)
        run.timed("setup", started, clock() - started)

    greedy: List[Any] = []

    def greedy_round() -> None:
        stamped = _StampedDeltas(deltas[: GREEDY_SNAPSHOTS - 1], ctx)
        problem = AVTProblem(EvolvingGraph(base=base, deltas=stamped), k=k, budget=budget)
        run.attempted += GREEDY_SNAPSHOTS
        gc.collect()
        ctx.speed.tick()
        stamped.begin()
        try:
            tracked = GreedyTracker().track(problem)
        except ReproError:
            run.failed += GREEDY_SNAPSHOTS
            return
        stamped.end()
        for start, seconds, _ in stamped.checked_spans(run, tracked):
            run.timed("greedy_snapshot", start, seconds)
        greedy.append(tracked)

    greedy_round()
    stamped = _StampedDeltas(deltas, ctx, {(snapshots - 1) // 2: greedy_round})
    problem = AVTProblem(EvolvingGraph(base=base, deltas=stamped), k=k, budget=budget)
    run.attempted += snapshots
    ctx.speed.tick()
    stamped.begin()
    layer_sums = [0.0, 0.0, 0.0, 0]
    try:
        incavt = IncAVTTracker().track(problem)
    except ReproError:
        run.failed += snapshots
        incavt = None
    if incavt is not None:
        stamped.end()
        spans = stamped.checked_spans(run, incavt)
        run.timed("incavt_first_snapshot", *spans[0][:2])
        for (start, seconds, (top, apply_delta, followers, builds)), delta in zip(spans[1:], deltas):
            run.timed("incavt_snapshot", start, seconds)
            run.counts["edge_changes"] += delta.num_changes
            layer_sums[0] += apply_delta
            layer_sums[1] += followers
            layer_sums[2] += seconds - top
            layer_sums[3] += builds
    greedy_round()
    ctx.speed.tick()

    shared_incavt = shared_greedy = 0
    if greedy and incavt is not None:
        with ctx.unobserved():
            _check_track(run, config, base, deltas, greedy, incavt)
        for t in range(1, GREEDY_SNAPSHOTS):
            shared_greedy += greedy[0].snapshots[t].num_followers
            shared_incavt += incavt.snapshots[t].num_followers
    for name, tracked in (("Greedy", greedy[0] if greedy else ()), ("IncAVT", incavt or ())):
        for snapshot in tracked:
            run.record_answer(name, snapshot.timestamp, list(snapshot.anchors), _followers_key(snapshot.result.followers))

    ratio = shared_incavt / shared_greedy if shared_greedy else 0.0
    run.named = [
        Named("setup_s", "median_s", "setup"),
        Named("greedy_snapshot_p50_ms", "p50_ms", "greedy_snapshot"),
        Named("incavt_first_snapshot_ms", "p50_ms", "incavt_first_snapshot"),
        Named("incavt_snapshot_p50_ms", "p50_ms", "incavt_snapshot"),
        Named("incavt_snapshot_tail_ms", "tail_ms", "incavt_snapshot"),
        Named("incavt_changes_per_s", "rate", count="edge_changes", rate_series=("incavt_snapshot",), note="edge changes absorbed per IncAVT second"),
        Named("incavt_follower_ratio", "value", value=ratio, unit="ratio", note=f"IncAVT/Greedy followers on snapshots 2..{GREEDY_SNAPSHOTS}"),
    ]
    incremental = len(run.series["incavt_snapshot"])
    if ctx.tracer is not None and incremental:
        run.layer_extras = {
            "anchored.index_builds_per_warm_query": layer_sums[3] / incremental,
            "anchored.gain_cache_hit_ratio": _gain_cache_hit_ratio([s.result for tracked in greedy for s in tracked]),
            "avt.incavt_residual.s": layer_sums[2],
            "track.incavt.apply_delta_ms_per_snapshot": 1e3 * layer_sums[0] / incremental,
            "track.incavt.compute_followers_ms_per_snapshot": 1e3 * layer_sums[1] / incremental,
            "track.incavt.residual_ms_per_snapshot": 1e3 * layer_sums[2] / incremental,
            "quality.follower_ratio": ratio,
        }
    return run


def _check_track(
    run: WorkloadRun, config: TrackConfig, base: Graph, deltas: Sequence[EdgeDelta], rounds: Sequence[Any], incavt: Any
) -> None:
    """Greedy against the oracle and its own repeats; sampled follower sets against their anchors."""
    k, budget = TRACK_K, TRACK_BUDGET
    greedy = rounds[0]
    for repeat in rounds[1:]:
        for snapshot, again in zip(greedy, repeat):
            run.check(_same_answer(again.result, snapshot.result))
    first = greedy.snapshots[0].result
    run.check(_same_answer(first, _oracle_greedy(base, k, budget)))
    run.check(_same_answer(incavt.snapshots[0].result, first))
    graph = base.copy()
    for t in range(1, len(incavt)):
        deltas[t - 1].apply(graph)
        if t < GREEDY_SNAPSHOTS:
            run.check(_feasible(graph, k, budget, greedy.snapshots[t].result))
        if t == 1 or t % config.check_every == 1:
            run.check(_feasible(graph, k, budget, incavt.snapshots[t].result))


# ----------------------------------------------------------------------
# engine workloads
# ----------------------------------------------------------------------
#: Series of the queries an engine loop times, by the path that answered.
QUERY_SERIES = ("hit_query", "warm_query", "cold_query", "failed_query")


def _query(run: WorkloadRun, ctx: Context, engine: StreamingAVTEngine, k: int, budget: int, series: str = ""):
    """One timed query; returns ``(result or None, path)``, path hit/warm/cold/failed.

    Loop queries land in the ``<path>_query`` series; an exact priming query
    (``series`` given) lands in ``series`` when it ran the solver, nested in
    its set-up.
    """
    stats = engine.stats
    warm_before, cold_before = stats.warm_solves, stats.cold_solves
    run.attempted += 1
    ctx.speed.tick()
    started = clock()
    try:
        result = engine.query(k, budget, warm=False if series else None)
    except ReproError:
        result = None
    elapsed = clock() - started
    if result is None:
        run.failed += 1
        path = "failed"
    else:
        path = "warm" if stats.warm_solves > warm_before else "cold" if stats.cold_solves > cold_before else "hit"
    if not series:
        run.timed(f"{path}_query", started, elapsed)
    elif path == "cold":
        run.timed(series, started, elapsed, nested=True)
    return result, path


def _set_up_engine(run: WorkloadRun, ctx: Context, graph: Graph, keys: Sequence[Tuple[int, int]]):
    """Build an engine and prime one exact query per key: one ``setup`` sample.

    Each priming query is also one ``exact_query`` sample.  The sample starts
    on a freshly collected heap: a full collection the live engines left due
    would otherwise land in some samples and not others.
    """
    gc.collect()
    ctx.speed.tick()
    started = clock()
    engine = StreamingAVTEngine(graph)
    primed = [_query(run, ctx, engine, k, budget, series="exact_query")[0] for k, budget in keys]
    run.timed("setup", started, clock() - started)
    return engine, primed


def _check_exact(run: WorkloadRun, graph: Graph, keys: Sequence[Tuple[int, int]], answers: Sequence[Any]) -> None:
    for (k, budget), result in zip(keys, answers):
        if result is None:
            continue
        run.check(_same_answer(result, _oracle_greedy(graph, k, budget)))
        run.record_answer("exact", k, budget, list(result.anchors), _followers_key(result.followers))


def _engine_extras(run: WorkloadRun, engines: Sequence[StreamingAVTEngine], exact: Sequence[Any]) -> None:
    """Per-layer counters read from the public ``EngineStats`` of each engine."""

    def total(name: str) -> float:
        return sum(getattr(engine.stats, name) for engine in engines)

    queries, ingested = total("queries"), total("updates_ingested")
    run.layer_extras.update(
        {
            "anchored.gain_cache_hit_ratio": _gain_cache_hit_ratio([result for result in exact if result is not None]),
            "engine.ingest.cancel_ratio": total("updates_cancelled") / ingested if ingested else 0.0,
            "engine.query.hit": total("cache_hits"),
            "engine.query.warm": total("warm_solves"),
            "engine.query.cold": total("cold_solves"),
            "engine.cache.hit_ratio": total("cache_hits") / queries if queries else 0.0,
            "engine.cache.promotions": total("cache_promotions"),
            "engine.cache.invalidations": total("cache_invalidations"),
        }
    )


def _ingest_events(run: WorkloadRun, engine: StreamingAVTEngine, events: Sequence[Tuple[bool, int, int]]) -> None:
    for is_insert, u, v in events:
        run.attempted += 1
        try:
            if is_insert:
                engine.ingest_insert(u, v)
            else:
                engine.ingest_remove(u, v)
        except ReproError:
            run.failed += 1


# ----------------------------------------------------------------------
# engine-mixed: read-heavy replay below the auto size threshold
# ----------------------------------------------------------------------
#: Query keys ``(k, budget)`` of ``engine-mixed``, most popular first (Zipf weights 1/rank).
MIXED_KEYS: Tuple[Tuple[int, int], ...] = ((4, 8), (3, 8), (5, 8), (4, 4))
QUERIES_PER_BURST = 4
#: Measured seconds one engine runs for on a 2-CPU machine.
INSTANCE_SECONDS = 2.5
#: Every n-th warm answer is compared with the exact Greedy answer.
EXACT_SAMPLE_EVERY = 6
#: Every n-th cache hit has its followers re-derived; warm and cold answers
#: always do.
HIT_CHECK_EVERY = 4


@dataclass(frozen=True)
class MixedConfig:
    num_vertices: int = 3_000
    num_edges: int = 9_000
    events_per_burst: int = 64
    bursts_per_second: float = 4.0


def run_engine_mixed(ctx: Context, config: MixedConfig) -> WorkloadRun:
    """Engines on the dataset, each with its own edge stream: bursts of events, then queries."""
    loop = ("ingest",) + QUERY_SERIES
    run = WorkloadRun(
        "engine-mixed",
        roles={"setup": "setup", "op": "warm_query", "exact": "exact_query", "rate": ("queries", loop)},
    )
    n, per_burst, per_query, keys = config.num_vertices, config.events_per_burst, QUERIES_PER_BURST, MIXED_KEYS
    instances = max(1, round(ctx.seconds / INSTANCE_SECONDS))
    bursts = max(2, round(INSTANCE_SECONDS * config.bursts_per_second))
    edges = dataset_edges(n, config.num_edges)
    graph = build_graph(n, edges)
    # One fixed query schedule for every engine and seed: the key mix decides
    # how many queries hit, so drawing it per seed would add to the spread.
    weights = [1.0 / (rank + 1) for rank in range(len(keys))]
    draws = random.Random("query-schedule").choices(keys, weights=weights, k=bursts * per_query)
    warm_followers = exact_followers = compared = 0
    engines: List[StreamingAVTEngine] = []
    exact_results: List[Any] = []
    builds = 0
    for instance in range(instances):
        events = EdgeStream(n, edges, _stream_rng(ctx.seed, instance)).events(bursts * per_burst)
        engine, primed = _set_up_engine(run, ctx, graph, keys)
        engines.append(engine)
        exact_results += primed
        with ctx.unobserved():
            _check_exact(run, graph, keys, primed)
        builds_before = ctx.tracer.layers["anchored.index_build"].calls if ctx.tracer else 0

        for burst in range(bursts):
            ctx.speed.tick()
            started = clock()
            _ingest_events(run, engine, events[burst * per_burst : (burst + 1) * per_burst])
            run.timed("ingest", started, clock() - started)
            run.counts["events"] += per_burst
            for k, budget in draws[burst * per_query : (burst + 1) * per_query]:
                result, path = _query(run, ctx, engine, k, budget)
                run.counts["queries"] += 1
                if result is None:
                    continue
                hits = len(run.series["hit_query"])
                with ctx.unobserved():
                    live = engine.graph
                    if path != "hit" or hits % HIT_CHECK_EVERY == 1:
                        run.check(_feasible(live, k, budget, result))
                    if path == "cold":
                        exact_results.append(result)
                        run.check(_same_answer(result, _oracle_greedy(live, k, budget)))
                    elif path == "warm" and len(run.series["warm_query"]) % EXACT_SAMPLE_EVERY == 1:
                        compared += 1
                        warm_followers += len(result.followers)
                        exact_followers += len(_oracle_greedy(live, k, budget).followers)
                run.record_answer(instance, k, budget, list(result.anchors), _followers_key(result.followers))
        if ctx.tracer is not None:
            builds += ctx.tracer.layers["anchored.index_build"].calls - builds_before
    ctx.speed.tick()

    ratio = warm_followers / exact_followers if exact_followers else 0.0
    warm_count = len(run.series["warm_query"])
    hits = len(run.series["hit_query"])
    run.named = [
        Named("setup_s", "median_s", "setup"),
        Named("warm_query_p50_ms", "p50_ms", "warm_query"),
        Named("warm_query_tail_ms", "tail_ms", "warm_query"),
        Named("query_throughput_qps", "rate", count="queries", rate_series=loop, note=f"{instances} engines; {hits} hits, {warm_count} warm"),
        Named("ingest_events_per_s", "rate", count="events", rate_series=("ingest",)),
        Named("exact_query_p50_ms", "p50_ms", "exact_query"),
        Named("warm_follower_ratio", "value", value=ratio, unit="ratio", note=f"warm/exact followers on {compared} sampled warm answers"),
    ]
    if ctx.tracer is not None:
        run.layer_extras["anchored.index_builds_per_warm_query"] = builds / warm_count if warm_count else 0.0
        run.layer_extras["quality.follower_ratio"] = ratio
        _engine_extras(run, engines, exact_results)
    return run


# ----------------------------------------------------------------------
# engine-ingest: write-heavy stream above the auto size threshold
# ----------------------------------------------------------------------
#: One key, so the set-up's exact solves are repeats of one computation.
INGEST_KEYS: Tuple[Tuple[int, int], ...] = ((4, 8),)
#: A third of the edge count.  Uniform insertions turn the Chung–Lu dataset
#: into a uniform random graph; once about 40k of its edges are random its
#: k-cores merge, one insertion's subcore traversal reaches most of the graph,
#: and the stream would measure a different graph.
MAX_EVENTS = 50_000
#: Events between two speed-probe checks.
PROBE_EVERY = 256


@dataclass(frozen=True)
class IngestConfig:
    num_vertices: int = 50_000
    num_edges: int = 150_000
    #: Stream events per second of ``--seconds``, up to :data:`MAX_EVENTS`.
    events_per_second: int = 2_500
    #: The stream is cut into one cycle per this many seconds of ``--seconds``;
    #: each ends with a checkpoint and a restore, and the stream goes on on
    #: the restored engine.
    #: Each also repeats the set-up once on a throwaway engine, so the set-up
    #: samples spread over the run instead of meeting one slow stretch.
    cycle_seconds: float = 2.5


def run_engine_ingest(ctx: Context, config: IngestConfig) -> WorkloadRun:
    """One engine on the dataset, a long edge stream, and a restart after every cycle."""
    run = WorkloadRun(
        "engine-ingest",
        roles={"setup": "setup", "op": "flush", "exact": "exact_query", "rate": ("events", ("ingest",))},
    )
    n = config.num_vertices
    edges = dataset_edges(n, config.num_edges)
    graph = build_graph(n, edges)
    cycles = max(1, round(ctx.seconds / config.cycle_seconds))
    total = min(MAX_EVENTS, round(ctx.seconds * config.events_per_second))
    per_cycle = max(64, total // cycles)
    events = EdgeStream(n, edges, _stream_rng(ctx.seed)).events(cycles * per_cycle)

    engine, primed = _set_up_engine(run, ctx, graph, INGEST_KEYS)
    with ctx.unobserved():
        _check_exact(run, graph, INGEST_KEYS, primed)

    path = ctx.work_dir / "engine.ckpt"
    checkpoint_bytes = 0
    for cycle in range(cycles):
        stats = engine.stats
        flushes = stats.deltas_applied
        for index, event in enumerate(events[cycle * per_cycle : (cycle + 1) * per_cycle]):
            if index % PROBE_EVERY == 0:
                ctx.speed.tick()
            started = clock()
            _ingest_events(run, engine, (event,))
            elapsed = clock() - started
            run.timed("ingest", started, elapsed)
            if stats.deltas_applied != flushes:
                flushes = stats.deltas_applied
                run.timed("flush", started, elapsed, nested=True)
        run.counts["events"] += per_cycle
        run.attempted += 2
        try:
            ctx.speed.tick()
            started = clock()
            engine.checkpoint(path)
            run.timed("checkpoint", started, clock() - started)
            ctx.speed.tick()
            started = clock()
            restored = StreamingAVTEngine.restore(path)
            run.timed("restore", started, clock() - started)
        except ReproError:
            run.failed += 1
            continue
        checkpoint_bytes = path.stat().st_size
        with ctx.unobserved():
            run.check(restored.core_numbers() == engine.core_numbers())
        engine = restored
        _, again = _set_up_engine(run, ctx, graph, INGEST_KEYS)
        for result, repeat in zip(primed, again):
            run.check(result is not None and repeat is not None and _same_answer(repeat, result))
    path.unlink(missing_ok=True)
    ctx.speed.tick()

    final_core = engine.core_numbers()
    with ctx.unobserved():
        run.check(final_core == reference_core_numbers(engine.graph, backend=ORACLE_BACKEND))
    run.record_answer("core", sorted(final_core.items()))

    run.named = [
        Named("setup_s", "median_s", "setup"),
        Named("ingest_events_per_s", "rate", count="events", rate_series=("ingest",), note=f"{len(events)} events incl. auto-flushes"),
        Named("flush_p50_ms", "p50_ms", "flush"),
        Named("flush_tail_ms", "tail_ms", "flush"),
        Named("checkpoint_s", "median_s", "checkpoint"),
        Named("restore_s", "median_s", "restore"),
        Named("checkpoint_bytes", "value", value=checkpoint_bytes, unit="bytes"),
        Named("exact_query_p50_ms", "p50_ms", "exact_query"),
    ]
    if ctx.tracer is not None:
        run.layer_extras["engine.checkpoint.bytes"] = checkpoint_bytes
        _engine_extras(run, [engine], primed)
    return run


#: ``name -> (workload function, default configuration)``.
WORKLOADS: Dict[str, Tuple[Callable[[Context, Any], WorkloadRun], Any]] = {
    "track": (run_track, TrackConfig()),
    "engine-mixed": (run_engine_mixed, MixedConfig()),
    "engine-ingest": (run_engine_ingest, IngestConfig()),
}
