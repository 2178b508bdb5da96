"""Anchored Vertex Tracking (AVT) in dynamic social networks.

A pure-Python reproduction of *Incremental Graph Computation: Anchored Vertex
Tracking in Dynamic Social Networks*: the anchored k-core model of user
engagement, the optimised Greedy and incremental (IncAVT) trackers, the OLAK /
RCM / brute-force baselines, the graph and dataset substrates, and the full
experiment harness that regenerates the paper's tables and figures.

Quickstart::

    from repro import AVTProblem, GreedyTracker, IncAVTTracker, load_dataset

    problem = AVTProblem(load_dataset("eu_core", num_snapshots=10), k=3, budget=5)
    incremental = IncAVTTracker().track(problem)
    print(incremental.summary())

Online serving::

    from repro import StreamingAVTEngine, load_dataset

    evolving = load_dataset("gnutella", num_snapshots=10, scale=0.3)
    engine = StreamingAVTEngine(evolving.base)
    answer = engine.query(k=3, budget=5)          # cold solve, cached
    for delta in evolving.deltas:                 # live edge stream
        engine.ingest(delta)                      # batched + coalesced
        answer = engine.query(k=3, budget=5)      # warm IncAVT refresh
    again = engine.query(k=3, budget=5)           # served from cache
    print(engine.stats.summary())                 # hit rate, latencies
    engine.checkpoint("engine.ckpt")              # survive a restart
    resumed = StreamingAVTEngine.restore("engine.ckpt")

The engine batches edge events through an ingest buffer, maintains core
numbers incrementally, caches answers per graph version with selective
invalidation, and reuses the previous anchor set via the IncAVT update path
for warm queries; ``avt-bench serve-sim`` simulates the whole loop on a
bundled dataset.

Architecture
------------
The library is layered; each layer only depends on the ones above it::

    repro.graph     Graph (adjacency-set dict, hashable vertex ids)  ── public substrate
                    compact: VertexInterner · CompactGraph (CSR) ·
                    DynamicCompactAdjacency                          ── snapshot structures
    repro.backends  ExecutionBackend protocol · registry · auto
                    rule · dict / numpy kernels                      ── execution layer
    repro.cores     core_decomposition · KOrder · CoreMaintainer     ── k-core machinery
    repro.anchored  followers · AnchoredCoreIndex ·
                    Greedy / OLAK / RCM / brute force                ── anchored k-core
    repro.avt       per-snapshot trackers · IncAVTTracker            ── dynamic tracking
    repro.engine    StreamingAVTEngine (ingest, cache, warm solves)  ── online serving

*Execution backends* — every hot solver kernel (peeling decomposition,
k-core cascades, K-order ``deg+``, the follower cascades and candidate scans
behind the anchored core index) is defined once as the
:class:`~repro.backends.ExecutionBackend` protocol and implemented by the
registered backends; public modules never branch on a backend name, they
call through the object the registry resolves.  The two built-ins:

================  =============================================  =========================================
backend           implementation                                 ``auto`` picks it when
================  =============================================  =========================================
``dict``          hashable vertices over the adjacency-set       the work is a one-shot cascade (a single
                  graph; zero setup or translation cost          O(n + m) pass cannot amortise a snapshot
                                                                 build), or numpy is unavailable
``numpy``         an interned CSR snapshot: vectorised passes    every other case, at any graph size
                  for peels, k-cores, the capped index build,
                  candidate scans and OLAK's whole-shell
                  cascade; id-list loops for the region
                  follower cascade and commits
================  =============================================  =========================================

Incremental core maintenance is not a backend kernel:
:class:`CoreMaintainer` runs one pure-Python integer-id kernel on every
backend, with a live ``{vertex: core}`` map beside its id list, and sets it
up in one interning pass (a bucket cascade over its adjacency mirror).

Both backends guarantee identical core numbers and removal orders from the
full peels behind ``decompose``/``korder``, identical capped index states
(below), and identical instrumentation counts (enforced by
``tests/test_backend_equivalence.py``); only speed differs, and the
repository benchmark (``perfbench/``) measures it end to end.

*Capped index and delta refresh* — an anchored core index never peels its
snapshot.  From construction on it keeps only what the greedy loops read at
its ``k`` (the capped contract in :mod:`repro.backends.base`): core numbers
``min(anchored core, k)``, anchors at infinity, and the ``(k-1)``-shell in
full-peel order after every lower vertex.
:meth:`~repro.backends.CoreIndexKernel.refresh` builds that state with a
cascade over the levels below ``k`` only, and
:meth:`~repro.backends.CoreIndexKernel.commit_anchor` keeps it for one more
anchor; both then order only the ``(k-1)``-shell, and the candidate scan
walks that shell's edges:

=============  ==============================================================
kernel         ``refresh`` and ``commit_anchor`` paths
=============  ==============================================================
``dict``       a bucket cascade stopped at level ``k``
               (:func:`repro.backends.dict_backend.dict_capped_cores`);
               per-level riser cascades at levels up to ``k``
               (:func:`repro.anchored.followers.commit_anchor_cores`, +1
               each, the single-anchor shell lemma); then one within-shell
               cascade over the ``(k-1)``-shell
``numpy``      the peel's vectorised waves stopped before level ``k``; the
               same riser cascades over id lists
               (:func:`repro.cores.decomposition.commit_anchor_ids`); the
               shell order is the peel's vectorised Phase-B shell pass
=============  ==============================================================

IncAVT's swap/fill pass reuses the riser cascades, capped at ``k``, on a copy
of the maintained core numbers, so a warm update runs no peel.  Its followers
come from :func:`~repro.anchored.compute_followers` given the maintained
k-core, which peels only the region grown from the anchors outside it.

Every path returns the exact *touched set* (vertices whose anchored core
number changed), which :class:`~repro.anchored.GreedyAnchoredKCore` uses to
memoize marginal gains across rounds: each candidate evaluation is cached
with its read region and invalidated only when a commit touches that region
or its one-hop neighbourhood, so each round re-runs O(invalidated) cascades
instead of O(candidates) — anchors, followers and the paper's
instrumentation counters stay bit-identical to a Greedy that re-runs every
cascade every round, enforced by ``tests/test_incremental_refresh.py``
against an index-free reference Greedy built from full anchored peels.  The
determinism hinges on the interning semantics: :class:`~repro.graph.VertexInterner`
assigns dense ids in first-seen order and never moves them, and ordered
:class:`~repro.graph.CompactGraph` snapshots intern in
:func:`repro.ordering.tie_break_key` order so the integer id doubles as the
deterministic tie-break rank.  Engine checkpoints persist the backend
policy name, and restoring a checkpoint whose backend is unknown or
unavailable in the restoring process falls back to ``"auto"`` with a
warning.

*Custom backends* — implement the protocol and register it::

    from repro.backends import ExecutionBackend, register_backend

    class MyBackend(ExecutionBackend):
        name = "mine"
        ...  # decompose / k_core / remaining_degrees / build_core_index

    register_backend("mine", MyBackend)
    GreedyAnchoredKCore(graph, k=3, budget=5, backend="mine")

The kernel ``build_core_index`` returns implements every
:class:`~repro.backends.CoreIndexKernel` method; ``commit_anchor`` and the
region cascade have no fallback, since Greedy's gain cache needs their
exact touched sets and regions.
Custom backends run when named; ``auto`` only picks dict or numpy.  An
``is_available`` probe (with an optional ``availability_reason`` companion
explaining *why* — missing import vs. ``REPRO_DISABLE_NUMPY`` switch) lets
optional-dependency backends like numpy step aside gracefully —
``avt-bench backends`` prints the registry with availability and reasons.

*Backend resolution* — ``StreamingAVTEngine(backend="auto")`` resolves its
backend once, at construction; since ``auto`` does not depend on graph
size, an engine that starts empty runs its cold solves on the same backend
it would pick for the grown graph, and its maintainer never migrates.

Observability
-------------
:mod:`repro.obs` is the cross-cutting layer every other layer reports into:

===========================  ==================================================
surface                      what it gives you
===========================  ==================================================
``repro.obs.tracer``         hierarchical spans over engine queries/flushes/
                             checkpoints, warm vs cold solves, per-round
                             greedy evaluate/commit, and kernel calls
:class:`~repro.obs.MetricsRegistry`
                             counters / gauges / log-bucketed histograms with
                             one snapshot schema, ``{name, type, value,
                             labels}``; :class:`EngineStats` and
                             ``SolverStats`` are views over registries
exporters                    :class:`~repro.obs.JsonLinesSpanSink` (streaming
                             span JSONL), :func:`~repro.obs.to_prometheus` /
                             :func:`~repro.obs.write_metrics` (Prometheus
                             text or JSON), and the existing human
                             ``summary()`` renderings
``repro.obs.analyze``        offline trace analytics: span-tree
                             reconstruction (:func:`~repro.obs.build_span_trees`),
                             Dapper-style critical paths
                             (:func:`~repro.obs.critical_path`, summing to the
                             root's wall time by construction), per-name
                             self-time flamegraph aggregation with
                             collapsed-stack output, and two-trace latency
                             diffs — also on the command line as
                             ``avt-bench trace {tree,critical-path,flame}``
                             (``--diff`` compares two traces)
===========================  ==================================================

Tracing is off by default and costs one module-flag check per instrumented
site when disabled; the repository benchmark's end-to-end metrics run with
tracing off, so they include that cost.  Enable it with
``repro.obs.tracer.set_enabled(True)``, the ``REPRO_TRACE=1`` environment
variable, or ``avt-bench serve-sim --trace-out spans.jsonl --metrics-out
metrics.prom`` for a fully traced replay; ``examples/traced_query.py`` walks
a captured trace through the span tree, the critical path and the flamegraph
aggregation.  The ``engine.latency.*`` histograms additionally carry
*exemplars* — each bucket remembers the trace id of its slowest recent
observation, linking a latency outlier straight to its trace.  Engine lifecycle events also go to stdlib logging under
the ``"repro"`` logger hierarchy (a :class:`logging.NullHandler` is
installed at the package root, per library convention).

Failure handling
----------------
Engine checkpoints are *verified*: each file carries a versioned manifest
with a SHA-256 digest per section (graph / core / warm / cache / stats),
written to a temporary file and renamed into place, so a failed save never
leaves a partial file.  A truncated or bit-flipped file raises
:class:`~repro.errors.CheckpointCorruptionError` naming the damaged section
*before* any unpickling of that section.  ``save_checkpoint(engine, path,
keep=N)`` rotates the last N checkpoints, and ``load_checkpoint`` falls
back to the newest intact rotation on corruption, logging each file it
skips; ``examples/checkpoint_recovery.py`` walks that loop in code.
"""

import logging as _logging

from repro.obs import (
    JsonLinesSpanSink,
    MetricsRegistry,
    global_registry,
    to_prometheus,
    tracer,
    write_metrics,
)

_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.anchored import (
    AnchoredCoreIndex,
    AnchoredKCoreResult,
    BruteForceAnchoredKCore,
    ExactSmallK,
    GreedyAnchoredKCore,
    OLAKAnchoredKCore,
    RCMAnchoredKCore,
    anchored_k_core,
    compute_followers,
    marginal_followers,
)
from repro.avt import (
    AVTProblem,
    AVTResult,
    BruteForceTracker,
    ExactSmallKTracker,
    GreedyTracker,
    IncAVTTracker,
    OLAKTracker,
    RCMTracker,
    SnapshotResult,
    SnapshotTracker,
)
from repro.cores import (
    CoreMaintainer,
    KOrder,
    core_decomposition,
    core_numbers,
    k_core,
    k_shell,
)
from repro.engine import (
    CacheKey,
    EngineStats,
    IngestBuffer,
    ResultCache,
    StreamingAVTEngine,
    load_checkpoint,
    save_checkpoint,
)
from repro.backends import (
    BACKEND_AUTO,
    BACKEND_DICT,
    BACKEND_NUMPY,
    BACKENDS,
    ExecutionBackend,
    available_backends,
    backend_availability,
    backend_info,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.errors import CheckpointCorruptionError
from repro.graph import (
    CompactGraph,
    DynamicCompactAdjacency,
    EdgeDelta,
    EvolvingGraph,
    Graph,
    SnapshotSequence,
    VertexInterner,
)
from repro.graph.datasets import (
    DATASET_NAMES,
    dataset_spec,
    load_dataset,
    load_snapshot_sequence,
    toy_example_evolving_graph,
    toy_example_graph,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # graph substrate
    "Graph",
    "EdgeDelta",
    "EvolvingGraph",
    "SnapshotSequence",
    # execution backends
    "BACKEND_AUTO",
    "BACKEND_DICT",
    "BACKEND_NUMPY",
    "BACKENDS",
    "CompactGraph",
    "DynamicCompactAdjacency",
    "ExecutionBackend",
    "VertexInterner",
    "available_backends",
    "backend_availability",
    "backend_info",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    # datasets
    "DATASET_NAMES",
    "dataset_spec",
    "load_dataset",
    "load_snapshot_sequence",
    "toy_example_graph",
    "toy_example_evolving_graph",
    # core machinery
    "core_decomposition",
    "core_numbers",
    "k_core",
    "k_shell",
    "KOrder",
    "CoreMaintainer",
    # anchored k-core
    "anchored_k_core",
    "compute_followers",
    "marginal_followers",
    "AnchoredCoreIndex",
    "AnchoredKCoreResult",
    "GreedyAnchoredKCore",
    "OLAKAnchoredKCore",
    "RCMAnchoredKCore",
    "BruteForceAnchoredKCore",
    "ExactSmallK",
    # AVT trackers
    "AVTProblem",
    "AVTResult",
    "SnapshotResult",
    "SnapshotTracker",
    "GreedyTracker",
    "OLAKTracker",
    "RCMTracker",
    "BruteForceTracker",
    "ExactSmallKTracker",
    "IncAVTTracker",
    # online serving engine
    "StreamingAVTEngine",
    "IngestBuffer",
    "ResultCache",
    "CacheKey",
    "EngineStats",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointCorruptionError",
    # observability
    "tracer",
    "MetricsRegistry",
    "global_registry",
    "JsonLinesSpanSink",
    "to_prometheus",
    "write_metrics",
]
