"""Stateful differential check of the streaming engine against scratch oracles.

One hypothesis ``RuleBasedStateMachine`` drives a :class:`StreamingAVTEngine`
that starts on vertices 0-11 with a small ``batch_size`` (so auto-flush fires
inside ingest) and mirrors every accepted edge operation on a shadow graph.
Edges are drawn over vertices -1..15, so inserts and removals also reach
vertices the engine does not know yet.  Vertex -1 sorts before every other
vertex but, arriving late, gets the maintained graph's newest id: ids carry
no order, so the next exact answer must still break its ties by vertex and
rank -1 first (the shell pass keys the vertices it orders, not their ids).
The rules interleave single inserts (self-loops included, which must fail
at ingest and buffer nothing), removals (absent edges and self-loops
included), whole deltas, flushes,
exact and warm queries, checkpoint + restore into a fresh engine on every
available backend, and rotated saves whose newest file then has one byte of
its ``core`` section flipped.  After every step the engine must agree with
the oracles:

* with nothing pending, its graph (vertex set included) equals the shadow
  graph and its core numbers equal
  :func:`~repro.cores.decomposition.core_numbers`;
* an exact answer equals the index-free reference Greedy
  (:func:`tests.conftest.reference_greedy`, built from full heap peels and
  :func:`follower_gain` only), and asking again returns the same answer;
* a warm answer has at most ``budget`` distinct anchors, all in the graph,
  and its followers equal the reference :func:`compute_followers` path
  (no ``k_core_vertices`` shortcut);
* a restore is lossless, and a corrupted newest rotation either falls back
  to the intact older one or raises :class:`CheckpointError`.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.anchored.followers import compute_followers
from repro.backends import numpy_available
from repro.cores.decomposition import core_numbers
from repro.engine import StreamingAVTEngine, load_checkpoint
from repro.engine.checkpoint import read_state
from repro.errors import CheckpointCorruptionError, CheckpointError, SelfLoopError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph
from tests.conftest import flip_section_byte, reference_greedy

#: The engine starts on these; edges may also name vertices -1 and 12-15.
VERTICES = range(12)
BATCH_SIZE = 3

vertices = st.integers(min_value=-1, max_value=15)
edges = st.tuples(vertices, vertices)
ks = st.integers(min_value=1, max_value=4)
budgets = st.integers(min_value=0, max_value=3)
restore_backends = st.sampled_from(
    ["auto", "dict"] + (["numpy"] if numpy_available() else [])
)


def durable_state(engine: StreamingAVTEngine) -> Dict[str, Any]:
    """``to_state()`` minus what a restore legitimately changes.

    The stats carry the checkpoint counters; vertex and edge lists are
    compared as sets (their order follows adjacency iteration); everything
    else must survive bit for bit.
    """
    state = engine.to_state()
    del state["stats"]
    state["vertices"] = set(state["vertices"])
    state["edges"] = {frozenset(edge) for edge in state["edges"]}
    state["warm"] = {
        key: {**payload, "stale": set(payload["stale"])}
        for key, payload in state["warm"].items()
    }
    return state


class EngineMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.shadow = Graph(vertices=VERTICES)
        self.engine = StreamingAVTEngine(Graph(vertices=VERTICES), batch_size=BATCH_SIZE)
        self.workdir = Path(tempfile.mkdtemp(prefix="engine-machine-"))
        self.rotation = self.workdir / "rotated.ckpt"
        #: ``(intact, durable state)`` of the files at ``rotation`` and
        #: ``rotation.1``, newest first.
        self.saved: List[Tuple[bool, Dict[str, Any]]] = []

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    @rule(edge=edges)
    def insert(self, edge):
        u, v = edge
        if u == v:
            pending = self.engine.pending_updates
            with pytest.raises(SelfLoopError):
                self.engine.ingest_insert(u, v)
            assert self.engine.pending_updates == pending
            return
        self.engine.ingest_insert(u, v)
        self.shadow.add_edge(u, v)

    @rule(edge=edges)
    def remove(self, edge):
        u, v = edge
        self.engine.ingest_remove(u, v)
        if self.shadow.has_edge(u, v):
            self.shadow.remove_edge(u, v)

    @rule(
        inserted=st.lists(edges, max_size=4),
        removed=st.lists(edges, max_size=4),
    )
    def ingest_delta(self, inserted, removed):
        delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
        if any(u == v for u, v in delta.inserted):
            pending = self.engine.pending_updates
            with pytest.raises(SelfLoopError):
                self.engine.ingest(delta)
            assert self.engine.pending_updates == pending
            return
        self.engine.ingest(delta)
        delta.apply(self.shadow)

    @rule()
    def flush(self):
        self.engine.flush()
        assert self.engine.pending_updates == 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @rule(k=ks, budget=budgets)
    def exact_query(self, k, budget):
        answer = self.engine.query(k, budget, warm=False)
        # The reference builds no AnchoredCoreIndex, so it shares no code
        # with the capped build and commits the engine runs.
        anchors, followers, size, _, _ = reference_greedy(self.shadow, k, budget)
        assert answer.anchors == anchors
        assert answer.followers == followers
        assert answer.anchored_core_size == size
        again = self.engine.query(k, budget, warm=False)
        assert again.anchors == answer.anchors
        assert again.followers == answer.followers

    @rule(k=ks, budget=budgets)
    def warm_query(self, k, budget):
        answer = self.engine.query(k, budget, warm=True)
        assert len(set(answer.anchors)) == len(answer.anchors) <= budget
        assert all(self.shadow.has_vertex(anchor) for anchor in answer.anchors)
        reference = compute_followers(self.shadow, k, answer.anchors)
        assert answer.followers == reference
        again = self.engine.query(k, budget, warm=True)
        assert again.anchors == answer.anchors
        assert again.followers == answer.followers

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    @rule(backend=restore_backends)
    def checkpoint_and_restore(self, backend):
        self.engine.checkpoint(self.rotation, keep=2)
        expected = durable_state(self.engine)
        self.saved = [(True, expected)] + self.saved[:1]
        restored = StreamingAVTEngine.restore(self.rotation, backend=backend)
        assert durable_state(restored) == expected
        assert restored.core_numbers() == self.engine.core_numbers()
        self.engine = restored

    @rule()
    def save_with_corrupted_core(self):
        self.engine.checkpoint(self.rotation, keep=2)
        flip_section_byte(self.rotation, "core")
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(self.rotation)
        assert excinfo.value.section == "core"
        older = self.saved[:1]
        self.saved = [(False, durable_state(self.engine))] + older
        if older and older[0][0]:
            restored = load_checkpoint(self.rotation, fallback=True)
            assert durable_state(restored) == older[0][1]
        else:
            with pytest.raises(CheckpointError):
                load_checkpoint(self.rotation, fallback=True)

    # ------------------------------------------------------------------
    # Oracle agreement after every step
    # ------------------------------------------------------------------
    @invariant()
    def matches_shadow_when_settled(self):
        if self.engine.pending_updates:
            return
        assert self.engine.graph == self.shadow
        assert self.engine.core_numbers() == core_numbers(self.shadow)


EngineMachine.TestCase.settings = settings(
    max_examples=200,
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngineMachine = EngineMachine.TestCase
