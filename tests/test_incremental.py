"""Unit tests for the incremental tracker (IncAVT, Algorithm 6)."""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.followers import compute_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.anchored.result import SolverStats
from repro.avt import incremental
from repro.avt.incremental import IncAVTTracker
from repro.avt.problem import AVTProblem
from repro.avt.trackers import GreedyTracker, OLAKTracker
from repro.cores.maintenance import CoreMaintainer
from repro.errors import ParameterError
from repro.graph.datasets import load_dataset, toy_example_evolving_graph
from repro.graph.dynamic import EdgeDelta, EvolvingGraph
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ``(swap_all_anchors, fill_budget)``: every switch of the swap/fill pass.
PASS_CONFIGS = [(False, True), (False, False), (True, True), (True, False)]


@pytest.fixture
def toy_problem():
    return AVTProblem(toy_example_evolving_graph(), k=3, budget=2, name="toy")


@pytest.fixture
def gnutella_problem():
    evolving = load_dataset("gnutella", num_snapshots=5, scale=0.2, seed=4)
    return AVTProblem(evolving, k=3, budget=3, name="gnutella")


class TestBasicBehaviour:
    def test_one_result_per_snapshot(self, toy_problem):
        result = IncAVTTracker().track(toy_problem)
        assert len(result) == 2
        assert result.algorithm == "IncAVT"

    def test_first_snapshot_matches_greedy(self, toy_problem):
        incremental = IncAVTTracker().track(toy_problem)
        greedy = GreedyTracker().track(toy_problem, max_snapshots=1)
        assert set(incremental.snapshots[0].anchors) == set(greedy.snapshots[0].anchors)
        assert incremental.snapshots[0].num_followers == greedy.snapshots[0].num_followers

    def test_budget_respected(self, gnutella_problem):
        result = IncAVTTracker().track(gnutella_problem)
        for snapshot in result:
            assert len(snapshot.anchors) <= gnutella_problem.budget

    def test_reported_followers_match_recomputation(self, toy_problem):
        result = IncAVTTracker().track(toy_problem)
        snapshots = list(toy_problem.evolving_graph.snapshots())
        for snapshot_result, graph in zip(result, snapshots):
            expected = compute_followers(graph, 3, snapshot_result.anchors)
            assert set(snapshot_result.result.followers) == expected

    def test_max_snapshots(self, gnutella_problem):
        result = IncAVTTracker().track(gnutella_problem, max_snapshots=2)
        assert len(result) == 2

    def test_empty_horizon(self, toy_problem):
        result = IncAVTTracker().track(toy_problem, max_snapshots=0)
        assert len(result) == 0

    def test_negative_max_snapshots_rejected(self, toy_problem):
        with pytest.raises(ParameterError):
            IncAVTTracker().track(toy_problem, max_snapshots=-1)
        for bad in (1.5, "1", True):
            with pytest.raises(ParameterError):
                IncAVTTracker().track(toy_problem, max_snapshots=bad)


class TestRefreshAnchors:
    def test_refresh_swaps_against_affected_pool(self, toy_problem):
        evolving = toy_problem.evolving_graph
        maintainer = CoreMaintainer(evolving.base)
        first = GreedyAnchoredKCore(maintainer.graph, 3, 2).select()
        effect = maintainer.apply_delta(evolving.deltas[0], k=3)
        anchors, stats = IncAVTTracker().refresh_anchors(
            maintainer, 3, 2, first.anchors, effect.affected
        )
        assert len(anchors) <= 2
        # the swap/fill pass never does worse than carrying the old set forward
        refreshed = compute_followers(maintainer.graph, 3, anchors)
        carried = compute_followers(maintainer.graph, 3, first.anchors)
        assert len(refreshed) >= len(carried)
        assert stats.iterations >= 0

    def test_refresh_truncates_to_budget_and_rejects_negative(self, toy_problem):
        maintainer = CoreMaintainer(toy_problem.evolving_graph.base)
        anchors, _ = IncAVTTracker().refresh_anchors(maintainer, 3, 1, (7, 10), set())
        assert len(anchors) <= 1
        with pytest.raises(ParameterError):
            IncAVTTracker().refresh_anchors(maintainer, 3, -1, (), set())

    def test_refresh_drops_duplicate_anchors_before_the_budget_cut(self):
        graph = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)],
            vertices=range(8),
        )
        maintainer = CoreMaintainer(graph)
        tracker = IncAVTTracker()
        anchors, _ = tracker.refresh_anchors(maintainer, 2, 3, [6, 6, 7], {6, 7})
        assert anchors[:2] == [6, 7]
        assert len(set(anchors)) == len(anchors) <= 3
        anchors, _ = tracker.refresh_anchors(maintainer, 2, 2, [6, 6, 7], set())
        assert anchors == [6, 7]

    def test_no_swap_target_and_full_budget_skip_the_core_copy(self, toy_problem, monkeypatch):
        maintainer = CoreMaintainer(toy_problem.evolving_graph.base)
        copies = []

        class CopySpy(list):
            """The kernel's core list; a full read (the pass's copy) is logged."""

            def __iter__(self):
                copies.append(len(self))
                return super().__iter__()

        original = CoreMaintainer.id_store

        def spy(self):
            store = original(self)
            return store._replace(icore=CopySpy(store.icore))

        def no_dict_copy(self):
            raise AssertionError("the pass copied the core map")

        monkeypatch.setattr(CoreMaintainer, "id_store", spy)
        monkeypatch.setattr(CoreMaintainer, "core_numbers", no_dict_copy)
        # {15, 17} and their neighbours touch neither anchor, and neither
        # anchor is in the 3-core.
        tracker = IncAVTTracker()
        affected_ids = {maintainer.graph.ids[vertex] for vertex in (15, 17)}
        anchors, stats = tracker._update_anchor_set(maintainer, 3, 2, [7, 10], affected_ids)
        assert anchors == [7, 10]
        assert _counters(stats) == (0, 0, 0)
        assert copies == []
        # Spare budget to fill: now the pass copies the core list, once.
        anchors, stats = tracker._update_anchor_set(maintainer, 3, 3, [7, 10], affected_ids)
        assert anchors[:2] == [7, 10] and len(anchors) == 3
        assert copies == [maintainer.graph.num_vertices]


class TestIncrementalAdvantage:
    def test_visits_fewer_candidates_than_per_snapshot_greedy(self, gnutella_problem):
        incremental = IncAVTTracker().track(gnutella_problem)
        greedy = GreedyTracker().track(gnutella_problem)
        assert incremental.total_visited_vertices <= greedy.total_visited_vertices
        assert incremental.total_candidates_evaluated <= greedy.total_candidates_evaluated

    def test_visits_far_fewer_than_olak(self, gnutella_problem):
        incremental = IncAVTTracker().track(gnutella_problem)
        olak = OLAKTracker().track(gnutella_problem)
        assert incremental.total_visited_vertices < olak.total_visited_vertices

    def test_quality_stays_close_to_greedy(self, gnutella_problem):
        incremental = IncAVTTracker().track(gnutella_problem)
        greedy = GreedyTracker().track(gnutella_problem)
        if greedy.total_followers:
            assert incremental.total_followers >= 0.6 * greedy.total_followers

    def test_anchor_sets_are_stable_under_smooth_evolution(self, gnutella_problem):
        from repro.avt.metrics import anchor_stability

        result = IncAVTTracker().track(gnutella_problem)
        assert anchor_stability(result) >= 0.5


class TestConfiguration:
    def test_no_change_deltas_keep_anchors(self, toy_graph):
        evolving = EvolvingGraph(base=toy_graph.copy(), deltas=[EdgeDelta(), EdgeDelta()])
        problem = AVTProblem(evolving, k=3, budget=2, name="static")
        result = IncAVTTracker().track(problem)
        anchor_sets = {tuple(sorted(anchors, key=repr)) for anchors in result.anchor_sets}
        assert len(anchor_sets) == 1
        assert [s.num_followers for s in result] == [7, 7, 7]

    def test_restart_on_heavy_churn(self, toy_graph):
        # Replace nearly every edge: the tracker should fall back to Greedy.
        base = toy_graph.copy()
        removed = list(base.edges())[:20]
        inserted = [(1, 8), (1, 9), (4, 12), (4, 13), (17, 12), (17, 13)]
        delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
        evolving = EvolvingGraph(base=base, deltas=[delta])
        problem = AVTProblem(evolving, k=3, budget=2, name="churny")
        with_restart = IncAVTTracker(restart_churn_ratio=0.15).track(problem)
        without_restart = IncAVTTracker(restart_churn_ratio=None).track(problem)
        # Both must report follower sets consistent with their anchors.
        final_graph = list(evolving.snapshots())[-1]
        for result in (with_restart, without_restart):
            expected = compute_followers(final_graph, 3, result.snapshots[-1].anchors)
            assert set(result.snapshots[-1].result.followers) == expected
        # The restart path re-solves the heavy-churn snapshot exactly like a
        # from-scratch Greedy run on the same graph.
        greedy = GreedyTracker().track(problem)
        assert (
            with_restart.snapshots[-1].num_followers
            == greedy.snapshots[-1].num_followers
        )

    def test_swap_all_anchors_variant(self, gnutella_problem):
        literal = IncAVTTracker(swap_all_anchors=True).track(gnutella_problem)
        default = IncAVTTracker().track(gnutella_problem)
        assert literal.total_followers >= 0.9 * default.total_followers

    def test_fill_budget_disabled(self, toy_problem):
        result = IncAVTTracker(fill_budget=False).track(toy_problem)
        assert len(result) == 2

    def test_zero_budget(self, toy_evolving):
        problem = AVTProblem(toy_evolving, k=3, budget=0, name="toy")
        result = IncAVTTracker().track(problem)
        for snapshot in result:
            assert snapshot.anchors == ()
            assert snapshot.num_followers == 0


class TestParameterValidation:
    @pytest.mark.parametrize("k", [0, -1])
    def test_refresh_rejects_k_below_one(self, toy_problem, k):
        maintainer = CoreMaintainer(toy_problem.evolving_graph.base)
        with pytest.raises(ParameterError):
            IncAVTTracker().refresh_anchors(maintainer, k, 1, (4,), {3, 4})

    @pytest.mark.parametrize("k, budget", [(2.5, 1), ("3", 1), (3, 1.5), (3, None)])
    def test_refresh_rejects_non_integer_k_or_budget(self, toy_problem, k, budget):
        maintainer = CoreMaintainer(toy_problem.evolving_graph.base)
        with pytest.raises(ParameterError):
            IncAVTTracker().refresh_anchors(maintainer, k, budget, (4,), {3, 4})

    def test_unknown_backend_fails_at_construction(self):
        # It used to fail only inside track(), after the maintainer set-up.
        with pytest.raises(ParameterError, match="unknown backend"):
            IncAVTTracker(backend="sparse")

    def test_rejects_negative_neighbourhood_hops(self):
        with pytest.raises(ParameterError):
            IncAVTTracker(neighbourhood_hops=-3)
        # 1.5 used to fail only inside track(); strings and None escaped
        # as a raw TypeError.
        for bad in (1.5, "1", True, None):
            with pytest.raises(ParameterError):
                IncAVTTracker(neighbourhood_hops=bad)

    @pytest.mark.parametrize("option", ["fill_budget", "swap_all_anchors"])
    @pytest.mark.parametrize("flag", ["no", "false", "", 0, 1, None, [True]])
    def test_rejects_non_bool_switches(self, option, flag):
        # A truthy string such as "no" used to switch the option on.
        with pytest.raises(ParameterError, match=option):
            IncAVTTracker(**{option: flag})

    def test_rejects_negative_restart_churn_ratio(self):
        with pytest.raises(ParameterError):
            IncAVTTracker(restart_churn_ratio=-1.0)
        # NaN compares false with every churn ratio, so it would silently
        # turn restarts off, which only None may do.
        for bad in ("x", True, [0.1], float("nan")):
            with pytest.raises(ParameterError):
                IncAVTTracker(restart_churn_ratio=bad)
        IncAVTTracker(restart_churn_ratio=None)
        IncAVTTracker(restart_churn_ratio=1)

    def test_zero_hops_and_zero_churn_ratio_stay_valid(self, toy_problem):
        # restart_churn_ratio=0.0 is the "IncAVT(rebuild)" experiment variant.
        result = IncAVTTracker(neighbourhood_hops=0, restart_churn_ratio=0.0).track(toy_problem)
        greedy = GreedyTracker().track(toy_problem)
        assert [s.anchors for s in result] == [s.anchors for s in greedy]


# ----------------------------------------------------------------------
# The swap/fill pass against its anchored-core-index formulation
# ----------------------------------------------------------------------
def reference_update_anchor_set(
    tracker: IncAVTTracker,
    maintainer: CoreMaintainer,
    k: int,
    budget: int,
    previous_anchors: List[Vertex],
    affected: Set[Vertex],
) -> Tuple[List[Vertex], SolverStats]:
    """The swap/fill pass with one fresh :class:`AnchoredCoreIndex` per anchor set.

    A full anchored peel per swap target and one more for the fill phase:
    slow, but every number it reads comes straight from an anchored core
    decomposition, which makes it the referee of the tracker's pass.  It
    shares no code with the pass: its region and pool come from the
    hashable graph and a copy of the maintained core numbers, not from the
    kernel's id stores, and its indexes run the dict kernel's cascades, not
    the id cascades the pass runs.
    """
    stats = SolverStats()
    graph = maintainer.graph
    core = maintainer.core_numbers()
    anchors = [anchor for anchor in previous_anchors if graph.has_vertex(anchor)]

    # The affected vertices, grown by the tracker's neighbourhood radius.
    region = {vertex for vertex in affected if graph.has_vertex(vertex)}
    frontier = set(region)
    for _ in range(tracker._neighbourhood_hops):
        grown = set()
        for vertex in frontier:
            grown.update(graph.neighbors(vertex))
        frontier = grown - region
        region |= frontier
    # Theorem-3 relaxation: outside the k-core, next to the (k-1)-shell.
    pool = sorted(
        (
            vertex
            for vertex in region
            if vertex not in anchors
            and core[vertex] < k
            and any(core[neighbour] == k - 1 for neighbour in graph.neighbors(vertex))
        ),
        key=tie_break_key,
    )
    if not pool:
        return anchors, stats

    if tracker._swap_all_anchors:
        swap_targets = list(anchors)
    else:
        swap_targets = [
            anchor for anchor in anchors if anchor in region or core.get(anchor, 0) >= k
        ]

    for old_anchor in swap_targets:
        position = anchors.index(old_anchor)
        base_anchors = [anchor for anchor in anchors if anchor != old_anchor]
        index = AnchoredCoreIndex(graph, k, anchors=base_anchors, backend="dict")
        base_followers = index.followers()
        base_total = len(base_followers)

        def total_with(candidate: Vertex) -> int:
            gain = len(index.marginal_followers(candidate))
            already_follower = 1 if candidate in base_followers else 0
            return base_total + gain - already_follower

        best_vertex = old_anchor
        best_total = total_with(old_anchor)
        for candidate in pool:
            if candidate in anchors:
                continue
            total = total_with(candidate)
            if total > best_total:
                best_vertex, best_total = candidate, total
        if best_vertex != old_anchor:
            anchors[position] = best_vertex
        stats.candidates_evaluated += index.candidates_evaluated
        stats.visited_vertices += index.visited_vertices
        stats.iterations += 1

    if tracker._fill_budget and len(anchors) < budget:
        index = AnchoredCoreIndex(graph, k, anchors=anchors, backend="dict")
        while len(anchors) < budget:
            best: Optional[Vertex] = None
            best_gain = 0
            for candidate in pool:
                if candidate in anchors:
                    continue
                gain = len(index.marginal_followers(candidate))
                if gain > best_gain:
                    best, best_gain = candidate, gain
            if best is None or best_gain == 0:
                break
            anchors.append(best)
            index.commit_anchor(best)
            stats.iterations += 1
        stats.candidates_evaluated += index.candidates_evaluated
        stats.visited_vertices += index.visited_vertices

    return anchors, stats


def _counters(stats: SolverStats) -> Tuple[int, int, int]:
    return (stats.candidates_evaluated, stats.visited_vertices, stats.iterations)


def _assert_pass_matches_reference(tracker, maintainer, k, budget, carried, affected):
    ids = maintainer.graph.ids
    affected_ids = {ids[vertex] for vertex in affected if vertex in ids}
    anchors, stats = tracker._update_anchor_set(maintainer, k, budget, list(carried), affected_ids)
    expected, expected_stats = reference_update_anchor_set(
        tracker, maintainer, k, budget, list(carried), set(affected)
    )
    assert anchors == expected
    graph = maintainer.graph
    assert compute_followers(graph, k, anchors) == compute_followers(graph, k, expected)
    assert _counters(stats) == _counters(expected_stats)
    return anchors, stats


@st.composite
def swap_fill_scenarios(draw):
    """A graded random graph, a delta on it, carried anchors, an affected set
    and a neighbourhood radius."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    num_vertices = draw(st.integers(min_value=8, max_value=45))
    density = draw(st.sampled_from((2.0, 2.5, 3.0)))
    graph = chung_lu_graph(num_vertices, int(density * num_vertices), skew=1.2, seed=seed)
    vertices = sorted(graph.vertices())
    edges = sorted(graph.edges())
    rng = random.Random(seed)
    removed = rng.sample(edges, min(len(edges), draw(st.integers(0, 6))))
    inserted = [tuple(rng.sample(vertices, 2)) for _ in range(draw(st.integers(0, 6)))]
    delta = EdgeDelta.from_iterables(inserted=inserted, removed=removed)
    k = draw(st.integers(min_value=2, max_value=5))
    budget = draw(st.integers(min_value=0, max_value=4))
    if draw(st.booleans()):
        # What IncAVT carries: the previous snapshot's Greedy answer.
        carried = list(GreedyAnchoredKCore(graph, k, budget).select().anchors)
    else:
        carried = draw(st.lists(st.sampled_from(vertices), max_size=budget, unique=True))
    extra = draw(st.lists(st.sampled_from(vertices), max_size=num_vertices))
    hops = draw(st.sampled_from((1, 1, 0, 2)))
    return graph, delta, k, budget, carried, extra, hops


@pytest.mark.parametrize("swap_all_anchors, fill_budget", PASS_CONFIGS)
@SETTINGS
@given(scenario=swap_fill_scenarios())
def test_swap_fill_pass_matches_index_reference(swap_all_anchors, fill_budget, scenario):
    graph, delta, k, budget, carried, extra, hops = scenario
    tracker = IncAVTTracker(
        swap_all_anchors=swap_all_anchors, fill_budget=fill_budget, neighbourhood_hops=hops
    )
    maintainer = CoreMaintainer(graph)
    effect = maintainer.apply_delta(delta, k=k)
    # The engine passes everything a flush touched; the tracker passes VI ∪ VR.
    for affected in (effect.affected, effect.affected | set(extra)):
        _assert_pass_matches_reference(tracker, maintainer, k, budget, carried, affected)


@pytest.mark.parametrize("swap_all_anchors, fill_budget", PASS_CONFIGS)
def test_tracked_sequence_matches_index_reference(swap_all_anchors, fill_budget, monkeypatch):
    """Every snapshot of a real sequence; the pass swaps (and fills) there.

    Where a pass evaluates several anchor sets it reuses memoized gains: it
    runs fewer cascades than it counts evaluations, while every counter
    equals the referee's."""
    cascades = []
    cascade = incremental.compact_marginal_followers

    def counted(*args, **kwargs):
        cascades.append(args[2])
        return cascade(*args, **kwargs)

    monkeypatch.setattr(incremental, "compact_marginal_followers", counted)
    evolving = load_dataset("college_msg", num_snapshots=6, scale=0.3, seed=4)
    k, budget = 3, 4
    tracker = IncAVTTracker(swap_all_anchors=swap_all_anchors, fill_budget=fill_budget)
    maintainer = CoreMaintainer(evolving.base)
    anchors = list(GreedyAnchoredKCore(maintainer.graph, k, budget - 2).select().anchors)
    swaps = fills = evaluated = 0
    for delta in evolving.deltas:
        effect = maintainer.apply_delta(delta, k=k)
        refreshed, stats = _assert_pass_matches_reference(
            tracker, maintainer, k, budget, anchors, effect.affected
        )
        swaps += refreshed[: len(anchors)] != anchors
        fills += len(refreshed) > len(anchors)
        evaluated += stats.candidates_evaluated
        anchors = refreshed
    assert swaps > 0
    assert (fills > 0) == fill_budget
    assert 0 < len(cascades) <= evaluated
    if swap_all_anchors or fill_budget:
        # Several anchor sets per pass here, so the memo answers some
        # evaluations.  With only the touched anchors as swap targets, each
        # pass of this sequence has one, and nothing to reuse.
        assert len(cascades) < evaluated


def test_a_commit_retires_the_gains_it_can_reach():
    """Two carried anchors; the commit that differs between their swap
    targets changes a pool candidate's gain, so a gain kept from the first
    target would keep the second anchor where the referee swaps it.

    A triangle (the 2-core) with the path 0-3-4 and the separate path
    5-6-7-8, every path vertex at core 1.  For target 5, anchor 4 is
    committed: 8 would gain nothing, since 5 is a leaf.  For target 4,
    anchor 5 is committed, and 8 gains 6 and 7, the path between two
    anchors, against the one follower (3) that 4 keeps.
    """
    graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (5, 6), (6, 7), (7, 8)])
    maintainer = CoreMaintainer(graph)
    tracker = IncAVTTracker()
    anchors, _ = _assert_pass_matches_reference(
        tracker, maintainer, 2, 2, [5, 4], {3, 4, 5, 6, 7, 8}
    )
    assert anchors == [5, 8]
