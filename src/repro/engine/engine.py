"""The long-lived streaming AVT query engine.

:class:`StreamingAVTEngine` is the online counterpart of the batch trackers:
instead of replaying a finished :class:`SnapshotSequence`, it owns a live
graph and serves interleaved **updates** (edge insertions/deletions) and
**queries** (anchored k-core requests) indefinitely.  The design leans on the
paper's central observation — maintain, don't recompute — at three levels:

1. **Ingest batching** (:class:`~repro.engine.ingest.IngestBuffer`): raw edge
   events are coalesced (opposing insert/delete pairs cancel) and applied as
   one :class:`EdgeDelta` through incremental core maintenance.
2. **Result caching** (:class:`~repro.engine.cache.ResultCache`): answers are
   cached per ``(graph_version, k, budget, solver)``.  A flush advances the
   version, but entries whose ``k`` is provably untouched by the delta (every
   touched vertex kept core number ``>= k``) are promoted to the new version
   rather than evicted, so queries against quiet regions keep hitting.
3. **Warm solving**: on a cache miss with a previous answer for the same
   ``(k, budget, solver)``, the engine refreshes the carried-forward anchor
   set via the IncAVT swap/fill pass restricted to the vertices the deltas
   actually touched (:meth:`IncAVTTracker.refresh_anchors`) instead of
   re-running the static solver.  Warm answers are the IncAVT heuristic —
   pass ``warm=False`` (or construct with ``warm_queries=False``) for exact
   from-scratch answers on every miss.

Cold and exact answers run the static solver on the maintained graph.  Its
backend is bound to the engine's maintainer once, at construction, so on
numpy the solve's snapshot is built in the maintainer's ids, from its
adjacency sets, rather than interned from the graph again.  The snapshot
lives only as long as that one solve.

Checkpoint/restore (:mod:`repro.engine.checkpoint`) persists the whole engine
— graph, core numbers, version counter, warm states, cache contents, stats —
so a restarted server resumes without a single decomposition.
"""

from __future__ import annotations

import logging
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.anchored.followers import compute_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.olak import OLAKAnchoredKCore
from repro.anchored.rcm import RCMAnchoredKCore
from repro.anchored.result import AnchoredKCoreResult, SolverStats
from repro.avt.incremental import IncAVTTracker
from repro.cores.maintenance import CoreMaintainer, DeltaEffect
from repro.engine.cache import CacheKey, ResultCache
from repro.engine.ingest import IngestBuffer
from repro.engine.stats import EngineStats
from repro.backends import BACKEND_AUTO, BACKENDS, ExecutionBackend, get_backend
from repro.errors import CheckpointError, ParameterError, require_bool, require_int
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph, IdGraph, Vertex
from repro.obs import tracer

logger = logging.getLogger("repro.engine")

SOLVERS: Dict[str, Callable[[Graph, int, int], Any]] = {
    "greedy": GreedyAnchoredKCore,
    "olak": OLAKAnchoredKCore,
    "rcm": RCMAnchoredKCore,
}


def _require_solver(name: Any) -> str:
    """``name`` if it is a key of :data:`SOLVERS`, else :class:`ParameterError`.

    A name that is not a string is refused before the lookup, which would
    let an unhashable one (a list, a dict) escape as a raw ``TypeError``.
    """
    if not isinstance(name, str) or name not in SOLVERS:
        raise ParameterError(f"unknown solver {name!r}; expected one of {sorted(SOLVERS)}")
    return name


#: Algorithm label of heuristic warm answers; exact-mode queries refuse to
#: reuse cache entries carrying it.
WARM_ALGORITHM = "IncAVT-warm"


@dataclass
class _WarmState:
    """Carried-forward anchors for one ``(k, budget, solver)`` triple."""

    version: int
    anchors: Tuple[Vertex, ...]
    stale: Set[Vertex] = field(default_factory=set)


class StreamingAVTEngine:
    """Online anchored-k-core engine over a live, incrementally maintained graph.

    Parameters
    ----------
    graph:
        Initial graph (defaults to empty).  The engine's maintainer interns
        it into its own :class:`~repro.graph.static.IdGraph` (:attr:`graph`),
        so ingesting never touches the caller's graph.
    cache_capacity:
        Maximum number of cached query answers (LRU beyond that).
    batch_size:
        Auto-flush threshold: once this many *net* operations are pending the
        buffer is applied eagerly.  ``None`` flushes only on demand (every
        query still flushes first so it never reads stale state).
    warm_queries:
        Default answer policy on cache misses: reuse the previous anchor set
        via the IncAVT update path (fast, heuristic) instead of re-running the
        static solver (slower, exact).  Overridable per query.
    default_solver:
        One of ``"greedy"``, ``"olak"``, ``"rcm"``.
    core:
        Trusted precomputed core numbers for ``graph`` (checkpoint restore);
        omit to compute them fresh.  They are read as given: core
        maintenance starts from them, warm queries read them and, on numpy,
        so does every exact query, whose index takes its capped cores and
        its plain k-core from them instead of peeling.
        :meth:`~repro.cores.maintenance.CoreMaintainer.validate` checks them.
    backend:
        Execution backend (``"auto"``, ``"dict"``, ``"numpy"``, or an
        :class:`~repro.backends.ExecutionBackend` instance, see
        :mod:`repro.backends`) for the cold solvers, resolved
        once at construction (``"auto"`` is numpy whenever numpy is
        available, at any graph size) and bound to the engine's maintainer
        (:meth:`~repro.backends.ExecutionBackend.bound_to`).  Core
        maintenance does not depend on it:
        :class:`~repro.cores.maintenance.CoreMaintainer` runs one integer-id
        kernel on every backend, so nothing migrates as the graph grows.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        *,
        cache_capacity: int = 256,
        batch_size: Optional[int] = 64,
        warm_queries: bool = True,
        default_solver: str = "greedy",
        core: Optional[Dict[Vertex, int]] = None,
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        # Every argument is checked before the O(n + m) maintainer build.
        require_int("cache_capacity", cache_capacity, 1)
        if batch_size is not None:
            require_int("batch_size", batch_size, 1)
        require_bool("warm_queries", warm_queries)
        _require_solver(default_solver)
        initial_graph = graph if graph is not None else Graph()
        # The requested policy is kept for checkpoints; ``_backend`` is the
        # resolved object bound to the maintainer, so a numpy cold solve
        # gathers its snapshot from the maintainer's ids.
        self._backend_policy = backend
        resolved = get_backend(backend)
        self._maintainer = CoreMaintainer(initial_graph, core=core)
        self._backend = resolved.bound_to(self._maintainer)
        self._buffer = IngestBuffer(self._maintainer.graph)
        self._cache = ResultCache(cache_capacity)
        self._stats = EngineStats()
        self._version = 0
        self._batch_size = batch_size
        self._warm_queries = warm_queries
        self._default_solver = default_solver
        # Bounded like the result cache: warm states are cheap but a
        # long-lived server must not accumulate one per historical query shape.
        self._warm: "OrderedDict[Tuple[int, int, str], _WarmState]" = OrderedDict()
        self._warm_capacity = max(cache_capacity, 16)
        self._refresher = IncAVTTracker()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> IdGraph:
        """The live maintained graph (do not mutate directly — use ingest).

        It is the maintainer's :class:`~repro.graph.static.IdGraph`: its
        neighbour sets are live views over the id rows core maintenance
        updates.
        """
        return self._maintainer.graph

    @property
    def graph_version(self) -> int:
        """Monotone counter, bumped once per flushed batch that changed the graph."""
        return self._version

    @property
    def stats(self) -> EngineStats:
        """Operational counters (hit rate, latencies, update throughput)."""
        return self._stats

    @property
    def cache(self) -> ResultCache:
        """The versioned result cache (exposed for inspection and tests)."""
        return self._cache

    @property
    def backend(self) -> str:
        """Name of the execution backend the cold solvers run on."""
        return self._backend.name

    @property
    def pending_updates(self) -> int:
        """Net operations buffered but not yet applied."""
        return self._buffer.pending_changes

    def core_numbers(self) -> Dict[Vertex, int]:
        """Copy of the maintained core numbers of the live graph."""
        return self._maintainer.core_numbers()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest_insert(self, u: Vertex, v: Vertex) -> None:
        """Buffer the insertion of edge ``(u, v)``."""
        self._buffered(lambda: self._buffer.insert(u, v))

    def ingest_remove(self, u: Vertex, v: Vertex) -> None:
        """Buffer the removal of edge ``(u, v)``."""
        self._buffered(lambda: self._buffer.remove(u, v))

    def ingest(self, delta: EdgeDelta) -> None:
        """Buffer a whole delta (e.g. one step of a replayed snapshot stream)."""
        self._buffered(lambda: self._buffer.extend(delta))

    def _buffered(self, action: Callable[[], None]) -> None:
        ingested = self._buffer.ingested
        cancelled = self._buffer.cancelled
        action()
        self._stats.updates_ingested += self._buffer.ingested - ingested
        self._stats.updates_cancelled += self._buffer.cancelled - cancelled
        if self._batch_size is not None and len(self._buffer) >= self._batch_size:
            self.flush()

    def flush(self) -> DeltaEffect:
        """Apply every buffered operation as one coalesced delta.

        Advances the graph version (when anything effectively changed),
        selectively invalidates the result cache and marks the warm anchor
        states stale around the touched region.  Returns the maintenance
        effect (empty when nothing was pending).
        """
        if self._buffer.is_empty():
            return DeltaEffect()
        with tracer.span("engine.flush") as flush_span:
            effect = self._flush_pending(flush_span)
        return effect

    def _flush_pending(self, flush_span) -> DeltaEffect:
        started = time.perf_counter()
        delta = self._buffer.flush()
        effect = self._maintainer.apply_delta(delta)
        self._stats.deltas_applied += 1
        self._stats.edges_inserted += len(delta.inserted)
        self._stats.edges_removed += len(delta.removed)
        touched = effect.touched
        if touched:
            old_version = self._version
            self._version += 1
            # An entry for constraint k survives iff every touched vertex kept
            # core >= k both before and after the delta: then no vertex outside
            # the k-core gained or lost anything, the k-core membership is
            # unchanged, and the anchored answer is byte-identical.  Old cores
            # come from the effect's first-seen snapshot, so this stays
            # O(|touched|) rather than O(n).
            pre_core = effect.pre_update_core
            safe_min = min(
                min(
                    pre_core.get(vertex, float("inf")),
                    self._maintainer.core(vertex),
                )
                for vertex in touched
            )
            promoted, invalidated = self._cache.promote(
                old_version, self._version, keep=lambda key: key.k <= safe_min
            )
            self._stats.cache_promotions += promoted
            self._stats.cache_invalidations += invalidated
            # A warm state whose stale region outgrows half the graph buys
            # nothing over a cold solve — drop it to bound memory in
            # long-lived engines.
            stale_limit = max(16, self._maintainer.graph.num_vertices // 2)
            doomed = []
            for warm_key, state in self._warm.items():
                state.stale |= touched
                if len(state.stale) > stale_limit:
                    doomed.append(warm_key)
            for warm_key in doomed:
                del self._warm[warm_key]
        self._stats.observe_latency(
            "update", time.perf_counter() - started, trace_id=tracer.current_trace_id()
        )
        flush_span.set(
            inserted=len(delta.inserted),
            removed=len(delta.removed),
            touched=len(touched),
            version=self._version,
        )
        logger.debug(
            "flush applied: +%d/-%d edges, %d vertices touched, version=%d",
            len(delta.inserted),
            len(delta.removed),
            len(touched),
            self._version,
        )
        return effect

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(
        self,
        k: int,
        budget: int,
        *,
        solver: Optional[str] = None,
        warm: Optional[bool] = None,
    ) -> AnchoredKCoreResult:
        """Answer one anchored k-core request against the current graph.

        Pending updates are flushed first, so the answer always reflects every
        ingested event.  Resolution order: result cache (same graph version) →
        warm IncAVT refresh of the previous anchors (if enabled and available)
        → cold static solver.  The returned result is cached for the current
        version.  ``warm`` (``True``, ``False``, or ``None`` for the engine's
        ``warm_queries`` default) overrides the warm policy for this query.
        """
        require_int("k", k, 1)
        require_int("budget", budget, 0)
        require_bool("warm", warm, allow_none=True)
        solver_name = _require_solver(solver if solver is not None else self._default_solver)
        use_warm = self._warm_queries if warm is None else warm

        with tracer.span(
            "engine.query", k=k, budget=budget, solver=solver_name
        ) as query_span:
            self.flush()
            started = time.perf_counter()
            self._stats.queries += 1
            key = CacheKey(self._version, k, budget, solver_name)
            cached = self._cache.get(key)
            if cached is not None and not use_warm and cached.algorithm == WARM_ALGORITHM:
                # The caller demands an exact answer but the entry is the warm
                # heuristic: fall through to a cold solve (which replaces it, so
                # the upgraded entry then serves both modes).
                cached = None
            if cached is not None:
                self._stats.cache_hits += 1
                self._stats.observe_latency(
                    "hit",
                    time.perf_counter() - started,
                    trace_id=tracer.current_trace_id(),
                )
                query_span.set(outcome="hit", version=self._version)
                return cached
            self._stats.cache_misses += 1

            warm_key = (k, budget, solver_name)
            state = self._warm.get(warm_key) if use_warm else None
            if state is not None:
                result = self._answer_warm(k, budget, state, started)
                query_span.set(outcome="warm", version=self._version)
            else:
                result = self._answer_cold(k, budget, solver_name, started)
                query_span.set(outcome="cold", version=self._version)
            self._cache.put(key, result)
            self._warm[warm_key] = _WarmState(
                version=self._version, anchors=tuple(result.anchors)
            )
            self._warm.move_to_end(warm_key)
            while len(self._warm) > self._warm_capacity:
                self._warm.popitem(last=False)
            return result

    def _answer_warm(
        self, k: int, budget: int, state: _WarmState, started: float
    ) -> AnchoredKCoreResult:
        graph = self._maintainer.graph
        with tracer.span("engine.solve.warm", k=k, budget=budget) as warm_span:
            if state.version == self._version or not state.stale:
                # Graph unchanged since the anchors were chosen (the cache entry
                # merely fell to LRU pressure): the previous anchors still stand.
                anchors: List[Vertex] = [
                    anchor for anchor in state.anchors if graph.has_vertex(anchor)
                ][:budget]
                solver_stats = SolverStats()
                warm_span.set(refreshed=False)
            else:
                anchors, solver_stats = self._refresher.refresh_anchors(
                    self._maintainer, k, budget, state.anchors, state.stale
                )
                warm_span.set(refreshed=True, stale=len(state.stale))
            plain_core = self._maintainer.k_core_vertices(k)
            followers = compute_followers(graph, k, anchors, k_core_vertices=plain_core)
            # Followers lie outside K and S: |K ∪ S ∪ F| = |K| + |S \ K| + |F|.
            size = len(plain_core) + len(set(anchors) - plain_core) + len(followers)
            solver_stats.runtime_seconds = time.perf_counter() - started
            warm_span.set(anchors=len(anchors), followers=len(followers))
        self._stats.warm_solves += 1
        self._stats.observe_latency(
            "warm", solver_stats.runtime_seconds, trace_id=tracer.current_trace_id()
        )
        return AnchoredKCoreResult(
            algorithm=WARM_ALGORITHM,
            k=k,
            budget=budget,
            anchors=tuple(anchors),
            followers=frozenset(followers),
            anchored_core_size=size,
            stats=solver_stats,
        )

    def _answer_cold(
        self, k: int, budget: int, solver_name: str, started: float
    ) -> AnchoredKCoreResult:
        with tracer.span(
            "engine.solve.cold", k=k, budget=budget, solver=solver_name
        ) as cold_span:
            solver = SOLVERS[solver_name](
                self._maintainer.graph, k, budget, backend=self._backend
            )
            result = solver.select()
            cold_span.set(anchors=len(result.anchors), followers=result.num_followers)
        self._stats.cold_solves += 1
        self._stats.observe_latency(
            "cold", time.perf_counter() - started, trace_id=tracer.current_trace_id()
        )
        return result

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        """Capture the full engine state as a plain dict.

        Pending buffered updates are flushed first, so the state describes a
        fully applied graph; restoring therefore never replays maintenance.
        """
        self.flush()
        backend_name = (
            self._backend_policy
            if isinstance(self._backend_policy, str)
            else self._backend_policy.name
        )
        if backend_name not in BACKENDS:
            # Fail at checkpoint time, not restore time: a state naming a
            # backend outside the built-in set can never be restored.
            raise CheckpointError(
                f"engine uses backend {backend_name!r}; only {sorted(BACKENDS)} "
                "can be checkpointed and restored"
            )
        graph = self._maintainer.graph
        return {
            "vertices": list(graph.vertices()),
            "edges": [tuple(edge) for edge in graph.edges()],
            "core": self._maintainer.core_numbers(),
            "version": self._version,
            "batch_size": self._batch_size,
            "warm_queries": self._warm_queries,
            "default_solver": self._default_solver,
            # The *policy*, not the resolved object: a restored engine
            # resolves it in the restoring process, and the state stays
            # JSON-serialisable.
            "backend": backend_name,
            "warm": {
                warm_key: {
                    "version": state.version,
                    "anchors": list(state.anchors),
                    "stale": list(state.stale),
                }
                for warm_key, state in self._warm.items()
            },
            "cache": {
                "capacity": self._cache.capacity,
                "entries": [
                    (cache_key.as_tuple(), result) for cache_key, result in self._cache.items()
                ],
            },
            "stats": self._stats.snapshot(),
        }

    @staticmethod
    def _restorable_backend(policy: Any) -> Any:
        """Resolve a checkpoint's backend policy in the restoring process.

        Returns the policy itself when it resolves, or ``"auto"`` with a
        warning when the persisted backend is unknown or unavailable here —
        restoring on weaker hardware/installs must not brick a checkpoint
        whose state is backend-independent anyway.  A policy that is not a
        name at all is a malformed state.
        """
        if not isinstance(policy, (str, ExecutionBackend)):
            raise CheckpointError(
                f"malformed engine state: backend must be a name, not {policy!r}"
            )
        if not isinstance(policy, str) or policy == BACKEND_AUTO:
            return policy
        try:
            get_backend(policy)
        except ParameterError as error:
            logger.warning(
                "checkpoint backend %r is not available in this process "
                "(%s); restoring with backend='auto'",
                policy,
                error,
            )
            warnings.warn(
                f"checkpoint backend {policy!r} is not available in this "
                f"process ({error}); restoring with backend='auto'",
                RuntimeWarning,
                stacklevel=3,
            )
            return BACKEND_AUTO
        return policy

    @classmethod
    def from_state(cls, state: Dict[str, Any], **overrides: Any) -> "StreamingAVTEngine":
        """Rebuild an engine from :meth:`to_state` output without recomputation.

        ``overrides`` replace construction-time settings (``cache_capacity``,
        ``batch_size``, ``warm_queries``, ``default_solver``).

        The persisted core numbers are trusted (``core`` in the class
        docstring): core maintenance, warm queries and, on numpy, exact
        queries read them as they are.

        When the persisted backend policy is unavailable in the restoring
        process (e.g. a ``"numpy"`` checkpoint restored on an interpreter
        without numpy) the engine falls back to ``"auto"`` with a
        :class:`RuntimeWarning` instead of refusing to restore — the state
        itself is backend-independent.  An explicit ``backend=`` override is
        never second-guessed: if it cannot be resolved, the restore fails.

        A persisted backend that is not a name, or a persisted
        ``warm_queries`` that is not ``True`` or ``False``, makes the state
        malformed: :class:`~repro.errors.CheckpointError`, so a restore falls
        back to the rotated checkpoint.  A bad explicit override is the
        caller's :class:`~repro.errors.ParameterError`.
        """
        try:
            graph = Graph(edges=state["edges"], vertices=state["vertices"])
            if "backend" in overrides:
                backend_policy = overrides.pop("backend")
            else:
                backend_policy = cls._restorable_backend(
                    state.get("backend", BACKEND_AUTO)
                )
            if "warm_queries" in overrides:
                warm_queries = overrides.pop("warm_queries")
            else:
                warm_queries = state["warm_queries"]
                if not isinstance(warm_queries, bool):
                    raise CheckpointError(
                        f"malformed engine state: warm_queries must be True or "
                        f"False, not {warm_queries!r}"
                    )
            engine = cls(
                graph,
                core=state["core"],
                cache_capacity=overrides.pop("cache_capacity", state["cache"]["capacity"]),
                batch_size=overrides.pop("batch_size", state["batch_size"]),
                warm_queries=warm_queries,
                default_solver=overrides.pop("default_solver", state["default_solver"]),
                backend=backend_policy,
            )
            if overrides:
                raise ParameterError(f"unknown restore overrides: {sorted(overrides)}")
            engine._version = state["version"]
            for warm_key, payload in state["warm"].items():
                engine._warm[warm_key] = _WarmState(
                    version=payload["version"],
                    anchors=tuple(payload["anchors"]),
                    stale=set(payload["stale"]),
                )
            for key_tuple, result in state["cache"]["entries"]:
                engine._cache.put(CacheKey(*key_tuple), result)
            engine._stats = EngineStats.from_snapshot(state["stats"])
        except (KeyError, TypeError) as error:
            raise CheckpointError(f"malformed engine state: {error}") from error
        return engine

    def checkpoint(self, path: Any, keep: int = 1) -> None:
        """Persist the engine to ``path`` (see :mod:`repro.engine.checkpoint`).

        ``keep`` must be an integer >= 1; above 1 it rotates previous
        checkpoints to ``<path>.1``… so :meth:`restore` can fall back when
        the newest file is corrupted.  A failed save raises
        :class:`~repro.errors.CheckpointError`, and the previous checkpoint
        survives (as ``<path>.1`` when rotating).
        """
        from repro.engine.checkpoint import save_checkpoint

        save_checkpoint(self, path, keep=keep)

    @classmethod
    def restore(cls, path: Any, **overrides: Any) -> "StreamingAVTEngine":
        """Rebuild an engine from a checkpoint file written by :meth:`checkpoint`."""
        from repro.engine.checkpoint import load_checkpoint

        return load_checkpoint(path, **overrides)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        graph = self._maintainer.graph
        return (
            f"StreamingAVTEngine(version={self._version}, n={graph.num_vertices}, "
            f"m={graph.num_edges}, cached={len(self._cache)}, "
            f"pending={self.pending_updates})"
        )
