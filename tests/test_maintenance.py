"""Unit tests for incremental core maintenance (EdgeInsert / EdgeRemove, Section 5.2)."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.avt.incremental import IncAVTTracker
from repro.avt.problem import AVTProblem
from repro.cores.decomposition import core_decomposition, core_numbers
from repro.cores.maintenance import CoreMaintainer, DeltaEffect
from repro.engine import StreamingAVTEngine
from repro.errors import (
    InvariantViolationError,
    ParameterError,
    ReproError,
    SelfLoopError,
    VertexNotFoundError,
)
from repro.graph.datasets import toy_example_evolving_graph, toy_example_graph
from repro.graph.dynamic import EdgeDelta
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph, IdGraph

from tests.conftest import random_graph, reference_delta_effect, reference_maintainer
from tests.test_backend_equivalence import graphs


class TestSingleEdgeInsertion:
    def test_insertion_updates_graph_and_cores(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3)]))
        increased = maintainer.insert_edge(1, 3)
        assert maintainer.graph.has_edge(1, 3)
        assert increased == {1, 2, 3}
        assert maintainer.core_numbers() == {1: 2, 2: 2, 3: 2}

    def test_inserting_existing_edge_is_noop(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2)]))
        assert maintainer.insert_edge(1, 2) == set()
        assert maintainer.graph.num_edges == 1

    def test_insertion_with_new_vertices(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2)]))
        increased = maintainer.insert_edge(3, 4)
        assert increased == {3, 4}
        assert maintainer.core(3) == 1 and maintainer.core(4) == 1

    def test_insertion_between_isolated_vertices(self):
        maintainer = CoreMaintainer(Graph(vertices=[1, 2]))
        assert maintainer.insert_edge(1, 2) == {1, 2}
        maintainer.validate()

    def test_cross_core_insertion_only_affects_lower_endpoint_side(self):
        # A 4-clique (core 3) plus a pendant path; connecting the path end to
        # the clique cannot change the clique's core numbers.
        clique = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        maintainer = CoreMaintainer(Graph(edges=clique + [(10, 11)]))
        before = {v: maintainer.core(v) for v in range(4)}
        maintainer.insert_edge(11, 0)
        maintainer.validate()
        assert {v: maintainer.core(v) for v in range(4)} == before

    @pytest.mark.parametrize("seed", range(6))
    def test_random_insertions_match_recomputation(self, seed):
        rng = random.Random(seed)
        graph = random_graph(seed, num_vertices=30, num_edges=45)
        maintainer = CoreMaintainer(graph)
        vertices = list(graph.vertices())
        for _ in range(40):
            u, v = rng.sample(vertices, 2)
            if not maintainer.graph.has_edge(u, v):
                maintainer.insert_edge(u, v)
        maintainer.validate()


class TestSingleEdgeDeletion:
    def test_deletion_updates_graph_and_cores(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3), (1, 3)]))
        decreased = maintainer.remove_edge(1, 3)
        assert not maintainer.graph.has_edge(1, 3)
        assert decreased == {1, 2, 3}
        assert maintainer.core_numbers() == {1: 1, 2: 1, 3: 1}

    def test_removing_absent_edge_is_noop(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2)]))
        assert maintainer.remove_edge(5, 6) == set()

    def test_deletion_can_cascade(self):
        # A 4-cycle collapses to core 1 when one edge disappears.
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3), (3, 4), (4, 1)]))
        decreased = maintainer.remove_edge(1, 2)
        assert decreased == {1, 2, 3, 4}
        assert all(value == 1 for value in maintainer.core_numbers().values())

    def test_deletion_to_isolation(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2)]))
        maintainer.remove_edge(1, 2)
        assert maintainer.core_numbers() == {1: 0, 2: 0}

    @pytest.mark.parametrize("seed", range(6))
    def test_random_deletions_match_recomputation(self, seed):
        rng = random.Random(seed)
        graph = random_graph(seed, num_vertices=30, num_edges=70)
        maintainer = CoreMaintainer(graph)
        edges = list(maintainer.graph.edges())
        rng.shuffle(edges)
        for u, v in edges[:40]:
            maintainer.remove_edge(u, v)
        maintainer.validate()


class TestMixedWorkloads:
    @pytest.mark.parametrize("seed", range(4))
    def test_interleaved_insertions_and_deletions(self, seed):
        rng = random.Random(seed)
        graph = random_graph(seed, num_vertices=25, num_edges=50)
        maintainer = CoreMaintainer(graph)
        vertices = list(graph.vertices())
        for _ in range(80):
            u, v = rng.sample(vertices, 2)
            if maintainer.graph.has_edge(u, v):
                maintainer.remove_edge(u, v)
            else:
                maintainer.insert_edge(u, v)
        maintainer.validate()

    def test_batch_helpers(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3)]))
        increased = maintainer.insert_edges([(1, 3), (3, 4)])
        assert increased
        decreased = maintainer.remove_edges([(3, 4)])
        assert decreased == {4} or 4 in decreased
        maintainer.validate()

    def test_the_callers_graph_is_never_shared(self):
        graph = Graph(edges=[(1, 2)])
        maintainer = CoreMaintainer(graph)
        maintainer.insert_edge(2, 3)
        maintainer.apply_delta(EdgeDelta.from_iterables(inserted=[(3, 4)], removed=[(1, 2)]))
        maintainer.graph.add_edge(4, 5)
        assert graph == Graph(edges=[(1, 2)])

    def test_insert_edges_returns_union_of_risen_vertices(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3), (1, 3)]))
        increased = maintainer.insert_edges([(3, 4), (1, 4), (2, 4)])
        # the triangle grows into K4: every vertex ends at core 3
        assert increased == {1, 2, 3, 4}
        maintainer.validate()

    def test_precomputed_core_numbers_skip_decomposition(self, toy_graph):
        reference = CoreMaintainer(toy_graph)
        trusted = CoreMaintainer(toy_graph, core=reference.core_numbers())
        assert trusted.core_numbers() == reference.core_numbers()
        trusted.validate()
        trusted.insert_edge(1, 9)
        trusted.validate()
        # Trusted values are taken verbatim, not recomputed: a wrong one is
        # carried until validate() cross-checks it.
        wrong = reference.core_numbers()
        wrong[8] = 7
        corrupted = CoreMaintainer(toy_graph, core=wrong)
        assert corrupted.core(8) == 7
        with pytest.raises(InvariantViolationError):
            corrupted.validate()

    def test_refresh_from_graph(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3)]))
        two_core = maintainer.k_core_vertices(2)
        # Mutate the maintained graph directly, as IncAVT's restart does.
        maintainer.graph.add_edge(1, 3)
        maintainer.graph.add_edge(3, 4)
        maintainer.refresh_from_graph()
        maintainer.validate()
        assert maintainer.core(1) == 2
        assert maintainer.core(4) == 1
        assert two_core == {1, 2, 3}  # a view taken before the refresh stays live


class TestApplyDelta:
    def test_apply_delta_reports_affected_pools(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(2, 5)], removed=[(2, 11)])
        effect = maintainer.apply_delta(delta, k=3)
        maintainer.validate()
        assert isinstance(effect, DeltaEffect)
        # Every reported pool member must sit in the (k-1)-shell afterwards.
        for vertex in effect.insertion_affected | effect.deletion_affected:
            assert maintainer.core(vertex) == 2
        assert effect.affected == effect.insertion_affected | effect.deletion_affected

    def test_apply_delta_counts_visited_vertices(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(1, 9)], removed=[(14, 15)])
        effect = maintainer.apply_delta(delta, k=3)
        assert effect.visited >= 1

    def test_apply_delta_without_k_skips_pools(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(1, 9)])
        effect = maintainer.apply_delta(delta)
        assert effect.insertion_affected == set()
        assert effect.deletion_affected == set()

    def test_apply_delta_rejects_bad_k(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(2, 5)], removed=[(2, 11)])
        for k in (0, 2.5, True, "3"):
            with pytest.raises(ParameterError):
                maintainer.apply_delta(EdgeDelta(), k=k)
            with pytest.raises(ParameterError):
                maintainer.apply_delta(delta, k=k)
        # Rejected before anything is applied.
        assert not maintainer.graph.has_edge(2, 5)
        assert maintainer.apply_delta(delta, k=3).touched

    def test_apply_delta_empty_fast_path(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        effect = maintainer.apply_delta(EdgeDelta(), k=3)
        assert effect.touched == set()
        assert effect.changed == set()
        assert effect.visited == 0

    def test_apply_delta_records_touched_without_k(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(2, 5)], removed=[(2, 11)])
        effect = maintainer.apply_delta(delta)
        assert {2, 5} <= effect.insertion_touched
        assert {2, 11} <= effect.deletion_touched
        assert effect.touched == effect.insertion_touched | effect.deletion_touched
        assert effect.changed == effect.increased | effect.decreased

    def test_apply_delta_noop_operations_leave_no_trace(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(8, 9)], removed=[(1, 9)])
        effect = maintainer.apply_delta(delta, k=3)
        assert effect.touched == set()
        assert effect.affected == set()
        assert effect.visited == 0
        maintainer.validate()

    def test_apply_delta_records_pre_update_cores(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        before = maintainer.core_numbers()
        delta = EdgeDelta.from_iterables(inserted=[(2, 5)], removed=[(2, 11)])
        effect = maintainer.apply_delta(delta)
        assert effect.pre_update_core
        for vertex, old_core in effect.pre_update_core.items():
            assert old_core == before[vertex]
        # every touched vertex that existed beforehand has its old core recorded
        for vertex in effect.touched:
            if vertex in before:
                assert vertex in effect.pre_update_core

    def test_pre_update_cores_mark_new_vertices_as_core_zero(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2)]))
        effect = maintainer.apply_delta(EdgeDelta.from_iterables(inserted=[(2, 99)]))
        # a vertex the delta created is new at every k: recorded at core 0
        assert effect.pre_update_core[99] == 0
        assert effect.pre_update_core[2] == 1

    def test_affected_pools_derive_from_touched_sets(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        delta = EdgeDelta.from_iterables(inserted=[(2, 5)], removed=[(2, 11)])
        effect = maintainer.apply_delta(delta, k=3)
        assert effect.insertion_affected <= effect.insertion_touched
        assert effect.deletion_affected <= effect.deletion_touched

    def test_snapshot_replay_matches_recomputation(self):
        base = random_graph(3, num_vertices=40, num_edges=90)
        maintainer = CoreMaintainer(base)
        rng = random.Random(7)
        vertices = list(base.vertices())
        current = base.copy()
        for _ in range(5):
            existing = list(current.edges())
            removed = rng.sample(existing, 4)
            inserted = []
            while len(inserted) < 4:
                u, v = rng.sample(vertices, 2)
                if not current.has_edge(u, v):
                    inserted.append((u, v))
            delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
            delta.apply(current)
            maintainer.apply_delta(delta, k=3)
            assert maintainer.core_numbers() == core_numbers(current)

    def test_validate_raises_on_corruption(self, toy_graph):
        # The id list and the level sets are two stores: corrupting either
        # one alone must fail validation.  The views read the id list.
        maintainer = CoreMaintainer(toy_graph)
        maintainer._kernel.icore[maintainer.graph.ids[8]] = 99
        assert maintainer.core(8) == 99 and maintainer.core_numbers()[8] == 99
        with pytest.raises(InvariantViolationError, match="id list"):
            maintainer.validate()
        # Vertex 8 is in the top core (3): drop it from that level set only.
        maintainer = CoreMaintainer(toy_graph)
        maintainer._kernel.levels[3].discard(maintainer.graph.ids[8])
        assert maintainer.core(8) == 3 and maintainer.core_numbers() == core_numbers(toy_graph)
        with pytest.raises(InvariantViolationError, match="level store"):
            maintainer.validate()


class TestSelfLoops:
    """A self-loop is rejected before the maintainer changes anything."""

    @staticmethod
    def _state(maintainer):
        graph = maintainer.graph
        return set(graph.vertices()), graph.edge_set(), maintainer.core_numbers()

    def test_insert_edge_rejects_a_self_loop_before_any_change(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3), (1, 3)]))
        before = self._state(maintainer)
        with pytest.raises(SelfLoopError):
            maintainer.insert_edge(9, 9)
        assert self._state(maintainer) == before
        maintainer.validate()

    def test_apply_delta_rejects_a_self_loop_before_any_change(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3), (1, 3)]))
        before = self._state(maintainer)
        with pytest.raises(SelfLoopError):
            maintainer.apply_delta(EdgeDelta(inserted=((1, 4), (6, 6))), k=2)
        assert self._state(maintainer) == before
        maintainer.validate()


class TestViews:
    def test_k_core_and_shell_views(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        assert maintainer.k_core_vertices(3) == {8, 9, 12, 13, 16}
        assert maintainer.shell_vertices(1) == {4}
        assert maintainer.core(8) == 3

    def test_core_of_unknown_vertex_raises_vertex_not_found(self):
        maintainer = CoreMaintainer(Graph(edges=[(1, 2)]))
        with pytest.raises(VertexNotFoundError):
            maintainer.core(99)
        maintainer.insert_edge(2, 99)
        assert maintainer.core(99) == 1

    def test_k_core_view_is_live(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        view = maintainer.k_core_vertices(4)
        assert len(view) == 0 and 8 not in view
        # Joining the 3-core's five members into a clique lifts them to core 4.
        top = [8, 9, 12, 13, 16]
        for i, u in enumerate(top):
            for v in top[i + 1 :]:
                maintainer.insert_edge(u, v)
        assert view == {8, 9, 12, 13, 16} and len(view) == 5 and 8 in view
        assert 999 not in view and view | {1} == {1, 8, 9, 12, 13, 16}
        maintainer.remove_edge(8, 9)
        maintainer.validate()
        assert view == {
            vertex for vertex, value in maintainer.core_numbers().items() if value >= 4
        }
        maintainer.refresh_from_graph()
        assert set(view) == set(maintainer.k_core_vertices(4))

    def test_id_store_mirrors_the_graph_and_the_cores(self, toy_graph):
        maintainer = CoreMaintainer(toy_graph)
        store = maintainer.id_store()

        def check(store):
            graph = maintainer.graph
            cores = maintainer.core_numbers()
            assert len(store.vertices) == graph.num_vertices
            for vertex in graph.vertices():
                vid = store.ids[vertex]
                assert store.vertices[vid] == vertex
                assert {store.vertices[u] for u in store.adj[vid]} == set(graph.neighbors(vertex))
                assert store.icore[vid] == cores[vertex]
            for level, members in enumerate(store.levels):
                assert {store.vertices[u] for u in members} == set(
                    maintainer.k_core_vertices(level)
                )

        check(store)
        # The stores are live: edge updates and new vertices show through.
        maintainer.insert_edge(8, 99)
        for u, v in [(8, 9), (9, 12)]:
            maintainer.remove_edge(u, v)
        check(store)
        assert maintainer.id_store().icore is store.icore
        # A rebuild replaces them, so a pass takes a new store after one.
        maintainer.refresh_from_graph()
        check(maintainer.id_store())


@pytest.mark.parametrize("k", [2.5, True, "2", None])
@pytest.mark.parametrize("view", ["k_core_vertices", "shell_vertices"])
@pytest.mark.parametrize("owner", ["maintainer", "decomposition"])
def test_core_views_reject_a_non_integer_k(toy_graph, owner, view, k):
    source = (
        CoreMaintainer(toy_graph) if owner == "maintainer" else core_decomposition(toy_graph)
    )
    with pytest.raises(ParameterError, match="k must be an integer"):
        getattr(source, view)(k)


def test_deletions_among_hubs_match_the_reference_and_a_fresh_peel():
    """The dense regime: deletion support counts and cascades over hub rows
    far longer than the level they intersect.

    At seed 7 the graph's top core is 21 with 32 members, and its top degree
    is 857.  Each delta removes edges among the vertices of the top three
    cores and puts back some that an earlier delta removed.
    """
    graph = chung_lu_graph(2000, 6000, seed=7)
    maintainer = CoreMaintainer(graph)
    reference = reference_maintainer(graph)
    rng = random.Random(7)
    removed_so_far = []
    cascades = 0
    for _ in range(20):
        core = maintainer.core_numbers()
        top = max(core.values())
        hubs = sorted(vertex for vertex, value in core.items() if value >= top - 2)
        hub_set = set(hubs)
        hub_edges = sorted(
            (u, v) for u in hubs for v in maintainer.graph.neighbors(u) if v in hub_set and u < v
        )
        removed = rng.sample(hub_edges, min(6, len(hub_edges)))
        inserted = rng.sample(removed_so_far, min(2, len(removed_so_far)))
        removed_so_far = [edge for edge in removed_so_far if edge not in inserted] + removed
        delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
        effect = maintainer.apply_delta(delta, k=top)
        # DeltaEffect.__eq__ compares the seven vertex-space fields and visited.
        assert effect == reference.apply_delta(delta, k=top)
        cascades += len(effect.decreased)
        maintainer.validate()
        expected = core_numbers(maintainer.graph, backend="dict")
        for k in range(max(expected.values()) + 2):
            assert maintainer.k_core_vertices(k) == {
                vertex for vertex, value in expected.items() if value >= k
            }
    # The deltas must actually lower cores, or the cascade never ran.
    assert cascades > 0


#: The attributes :func:`~tests.conftest.reference_delta_effect` reports.
EFFECT_FIELDS = (
    "increased",
    "decreased",
    "insertion_affected",
    "deletion_affected",
    "insertion_touched",
    "deletion_touched",
    "pre_update_core",
    "visited",
)


@st.composite
def delta_scripts(draw):
    """A starting graph, one to three mixed deltas and a ``k`` from 1 to 5.

    The graph is a drawn small graph or a graded Chung–Lu graph, whose
    shells are populated up to its top core.  Insertions range over its
    vertices and two newcomers, so they intern new vertices; half the
    removals are edges the graph has, so they reach its top core, endpoints
    at equal cores and endpoints in adjacent shells.
    """
    if draw(st.booleans()):
        graph = draw(graphs())
    else:
        num_vertices = draw(st.integers(min_value=12, max_value=60))
        density = draw(st.sampled_from((2.0, 3.0, 4.0)))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        graph = chung_lu_graph(num_vertices, int(density * num_vertices), skew=1.2, seed=seed)
    pool = sorted(graph.vertices(), key=repr) + list(NEWCOMERS)
    pairs = [(u, v) for i, u in enumerate(pool) for v in pool[i + 1 :]]
    present = sorted(graph.edges(), key=repr)
    edits = st.lists(st.sampled_from(pairs), max_size=8)
    deltas = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        removed = draw(edits)
        if present:
            removed += draw(st.lists(st.sampled_from(present), max_size=8))
        deltas.append(EdgeDelta.from_iterables(inserted=draw(edits), removed=removed))
    return graph, deltas, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=delta_scripts())
def test_apply_delta_matches_the_reference_effect(script):
    """Every field of every effect, and the core numbers after each delta,
    equal the from-scratch oracle's.  The effects are read only after the
    last delta, so each still reports its own delta."""
    graph, deltas, k = script
    maintainer = CoreMaintainer(graph)
    effects, expected = [], []
    for delta in deltas:
        fields, cores = reference_delta_effect(maintainer.graph, delta, k)
        effects.append(maintainer.apply_delta(delta, k=k))
        expected.append(fields)
        assert maintainer.core_numbers() == cores
        maintainer.validate()
    for effect, fields in zip(effects, expected):
        for name in EFFECT_FIELDS:
            assert getattr(effect, name) == fields[name], name


def test_an_effect_read_after_later_updates_reports_its_own_delta():
    """A triangle's third edge raises 1, 2 and 3; a later delta adds
    newcomers and lowers the same vertices again.  The first effect, read
    only afterwards, still reports its own delta, vertex for vertex."""
    maintainer = CoreMaintainer(Graph(edges=[(1, 2), (2, 3)]))
    first_delta = EdgeDelta.from_iterables(inserted=[(1, 3)])
    second_delta = EdgeDelta.from_iterables(inserted=[(3, 4), (4, 5)], removed=[(1, 3)])
    expected_first, _ = reference_delta_effect(maintainer.graph, first_delta, 2)
    first = maintainer.apply_delta(first_delta, k=2)
    expected_second, _ = reference_delta_effect(maintainer.graph, second_delta, 2)
    second = maintainer.apply_delta(second_delta, k=2)
    assert first.increased == {1, 2, 3} == second.decreased
    assert first.pre_update_core == {1: 1, 2: 1, 3: 1}
    assert first.insertion_affected == set() and second.insertion_affected == {3, 4, 5}
    for effect, fields in ((first, expected_first), (second, expected_second)):
        for name in EFFECT_FIELDS:
            assert getattr(effect, name) == fields[name], name
    assert first != second and first == first
    assert DeltaEffect() == DeltaEffect(visited=0) != first


# ---------------------------------------------------------------------------
# The maintained graph
# ---------------------------------------------------------------------------
#: Vertices no pool of ``graphs()`` holds, so edits intern them.
NEWCOMERS = ("newcomer", 10**6)


@st.composite
def growing_edit_scripts(draw):
    """A starting graph and edge edits over its vertices and two newcomers;
    each edit also draws whether it runs as a one-edge delta."""
    graph = draw(graphs())
    pool = sorted(graph.vertices(), key=repr) + list(NEWCOMERS)
    pairs = [(u, v) for i, u in enumerate(pool) for v in pool[i + 1 :]]
    operations = draw(
        st.lists(st.tuples(st.booleans(), st.sampled_from(pairs), st.booleans()), max_size=25)
    )
    return graph, operations


def assert_answers_as(maintained: IdGraph, plain: Graph) -> None:
    """``maintained`` answers every :class:`Graph` query as ``plain`` does."""
    assert list(maintained.vertices()) == list(plain.vertices()) == list(maintained)
    assert set(maintained.edges()) == set(plain.edges())
    assert maintained.edge_set() == plain.edge_set()
    assert maintained.num_vertices == plain.num_vertices == len(maintained)
    assert maintained.num_edges == plain.num_edges == len(list(maintained.edges()))
    pool = list(plain.vertices()) + list(NEWCOMERS)
    for u in pool:
        assert maintained.has_vertex(u) == plain.has_vertex(u) == (u in maintained)
        for v in pool:
            assert maintained.has_edge(u, v) == plain.has_edge(u, v)
    for vertex in plain.vertices():
        assert maintained.degree(vertex) == plain.degree(vertex)
        neighbours = maintained.neighbors(vertex)
        assert neighbours == plain.neighbors(vertex) and set(neighbours) == plain.neighbors(vertex)
        assert len(neighbours) == plain.degree(vertex)
    assert maintained == plain and plain == maintained
    clone = maintained.copy()
    assert type(clone) is Graph
    assert clone == plain and clone == maintained
    assert list(clone.vertices()) == list(plain.vertices())
    keep = pool[::2]
    assert maintained.subgraph(keep) == plain.subgraph(keep)
    assert {frozenset(component) for component in maintained.connected_components()} == {
        frozenset(component) for component in plain.connected_components()
    }
    assert maintained.degree_map() == plain.degree_map()
    assert maintained.average_degree() == plain.average_degree()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=growing_edit_scripts())
def test_the_maintained_graph_answers_as_a_plain_graph(script):
    """Edited through the maintainer, or through its own mutators and then
    refreshed, the maintained graph answers as a plain graph given the
    same edits, and its cores stay valid."""
    graph, operations = script
    through_maintainer = CoreMaintainer(graph)
    through_graph = CoreMaintainer(graph)
    plain = graph.copy()
    for insert, (u, v), as_delta in operations:
        if as_delta:
            # A delta orders each edge's endpoints, and with them new ids.
            edges = [(u, v)]
            delta = (
                EdgeDelta.from_iterables(inserted=edges)
                if insert
                else EdgeDelta.from_iterables(removed=edges)
            )
            delta.apply(plain)
            delta.apply(through_graph.graph)
            through_maintainer.apply_delta(delta)
        elif insert:
            plain.add_edge(u, v)
            through_graph.graph.add_edge(u, v)
            through_maintainer.insert_edge(u, v)
        else:
            if plain.has_edge(u, v):
                plain.remove_edge(u, v)
                through_graph.graph.remove_edge(u, v)
            through_maintainer.remove_edge(u, v)
        through_graph.refresh_from_graph()
        for maintainer in (through_maintainer, through_graph):
            assert_answers_as(maintainer.graph, plain)
            maintainer.validate()
    # Ids are permanent: removing a vertex is refused and changes nothing.
    maintained = through_maintainer.graph
    vertex = next(maintained.vertices())
    with pytest.raises(ReproError, match=re.escape(repr(vertex))):
        maintained.remove_vertex(vertex)
    assert_answers_as(maintained, plain)
    through_maintainer.validate()


def test_one_adjacency_per_maintained_graph(monkeypatch):
    """Building a maintainer, an engine or IncAVT's maintainer copies no
    graph: the maintainer interns the caller's graph once, into the rows its
    kernel reads, and no later update touches the caller's graph."""
    evolving = toy_example_evolving_graph()
    base = evolving.base
    graph = toy_example_graph()
    pristine = (list(base.vertices()), base.edge_set()), (list(graph.vertices()), graph.edge_set())

    def refuse(self):
        raise AssertionError("Graph.copy was called")

    monkeypatch.setattr(Graph, "copy", refuse)
    maintainer = CoreMaintainer(graph)
    assert maintainer.id_store().adj is maintainer.graph.rows
    maintainer.insert_edge(1, 9)
    u, v = maintainer.graph.ids[1], maintainer.graph.ids[9]
    assert v in maintainer.id_store().adj[u] and 9 in maintainer.graph.neighbors(1)
    engine = StreamingAVTEngine(graph, batch_size=1)
    engine.ingest_insert(2, 9)
    engine.ingest_remove(1, 2)
    engine.query(3, 2)
    IncAVTTracker().track(AVTProblem(evolving, k=3, budget=2))
    assert (list(base.vertices()), base.edge_set()) == pristine[0]
    assert (list(graph.vertices()), graph.edge_set()) == pristine[1]
