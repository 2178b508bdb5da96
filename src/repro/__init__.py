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
                    IdGraph (the same, interned into integer ids)
    repro.backends  ExecutionBackend protocol · get_backend and the
                    auto rule · dict / numpy kernels                 ── execution layer
    repro.cores     core_decomposition · CoreMaintainer              ── k-core machinery
    repro.anchored  followers · AnchoredCoreIndex ·
                    Greedy / OLAK / RCM / brute force                ── anchored k-core
    repro.avt       per-snapshot trackers · IncAVTTracker            ── dynamic tracking
    repro.engine    StreamingAVTEngine (ingest, cache, warm solves)  ── online serving

*Execution backends* — every solver kernel whose implementation differs
between backends (the capped build, follower cascades and candidate scans
behind the anchored core index) is defined once as the
:class:`~repro.backends.ExecutionBackend` protocol and implemented by two
backends; public modules never branch on a backend
name, they call through the object :func:`~repro.backends.get_backend`
resolves.  Every ``backend=`` argument takes ``"auto"``, ``"dict"``,
``"numpy"`` or an ``ExecutionBackend`` instance, which is used as given:

================  =============================================  =========================================
backend           implementation                                 ``auto`` picks it when
================  =============================================  =========================================
``dict``          hashable vertices over the adjacency-set       numpy is unavailable
                  graph; zero setup or translation cost
``numpy``         a CSR snapshot in integer ids, holding only    numpy is available, at any graph size
                  the rows its work reads: vectorised passes
                  for the capped index build, candidate scans
                  and OLAK's whole-shell cascade; scalar id
                  loops for the region follower cascade and
                  commits
================  =============================================  =========================================

The full peel is not a backend kernel:
:func:`~repro.cores.core_decomposition` and
:func:`~repro.cores.anchored_core_decomposition` run one heap peel over the
adjacency-set graph, whose ties go by :func:`repro.ordering.tie_break_key`.
No solver reads its whole removal order; it serves the public helpers and
is the referee of :meth:`CoreMaintainer.validate`.  Nor is the k-core:
:func:`~repro.cores.k_core`, :func:`~repro.anchored.anchored_k_core` and
the reference path of :func:`~repro.anchored.compute_followers` run one
deletion cascade over the adjacency-set graph
(:func:`repro.cores.decomposition.k_core_cascade`), a single O(n + m)
pass that building a snapshot would only add to.  Nor is incremental core
maintenance: :class:`CoreMaintainer` runs one pure-Python integer-id kernel
on every backend, which keeps the cores in two stores, the id list and
the level sets ``{id : core >= r}``.  It interns the caller's graph once,
into the ``IdGraph`` it maintains (one set of neighbour ids per id, the
only copy of its adjacency), and sets the cores up with a bucket cascade
over those rows.

Both backends guarantee identical capped index states (below) and
identical instrumentation counts (enforced by
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
``numpy``      vectorised peeling waves stopped before level ``k``,
               translating the row of each vertex they remove from the
               graph's own neighbour sets, or, for a solve over a maintained
               graph, the maintainer's core numbers capped at ``k`` (below);
               either way the CSR then holds the rows below ``k`` only, and
               anchors run the same level-limited waves over them; the same
               riser cascades on ids, over the snapshot's rows
               (:func:`repro.cores.decomposition.commit_anchor_ids`); the
               shell order is a vectorised within-shell pass, which
               keys only the shell members it orders
=============  ==============================================================

IncAVT's swap/fill pass runs on the core maintainer's integer ids
(:meth:`~repro.cores.maintenance.CoreMaintainer.id_store`): it reads its
region and candidate pool from the adjacency and level sets, and runs the
id riser cascades (:func:`repro.cores.decomposition.commit_anchor_ids`),
capped at ``k``, on a list copy of the maintained core numbers, so a warm
update runs no peel.  Gains are memoized across its swap targets by the
same read-scope argument as Greedy's gain cache (below).  Its followers
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
determinism hinges on one key: every order a solver reads breaks its ties
by :func:`repro.ordering.tie_break_key`, and no kernel reads an order from
its integer ids.  The numpy kernels key only the vertices they order (a
shell, or the components of one that a commit touched), so a snapshot
keeps its source's ids: a bare graph's are its iteration order, and only
the rows below ``k`` are translated into them, and a solve that holds a :class:`CoreMaintainer` (an engine's cold and
exact queries, IncAVT's first snapshot and restarts) runs on the backend
:meth:`~repro.backends.ExecutionBackend.bound_to` returns for it, which on
numpy builds the snapshot in the maintainer's ids without interning the
graph a second time, reads the maintained core numbers and plain k-core
instead of peeling, and flattens only the rows of the ids below ``k``.
Engine checkpoints store no backend: the backends give identical answers,
so a restore runs on the ``backend=`` it is given (``"auto"`` by default),
resolved in the restoring process, as the constructor resolves it.

*Backend resolution* — ``StreamingAVTEngine(backend="auto")`` resolves its
backend once, at construction; since ``auto`` does not depend on graph
size, an engine that starts empty runs its cold solves on the same backend
it would pick for the grown graph, and its maintainer never migrates.
Without numpy, or with ``REPRO_DISABLE_NUMPY=1``, the numpy backend reports
unavailable and says why; ``auto`` then runs everything on dict, and
``avt-bench backends`` prints both backends with the reason.

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
                             labels}``; :class:`EngineStats` (plain
                             attributes) emits the same rows on export
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
    get_backend,
    resolve_backend,
)
from repro.errors import CheckpointCorruptionError
from repro.graph import (
    EdgeDelta,
    EvolvingGraph,
    Graph,
    SnapshotSequence,
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
    "ExecutionBackend",
    "get_backend",
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
