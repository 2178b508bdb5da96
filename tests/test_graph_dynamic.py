"""Unit tests for edge deltas, snapshot sequences and evolving graphs."""

from __future__ import annotations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SnapshotError
from repro.graph.dynamic import EdgeDelta, EvolvingGraph, SnapshotSequence, _normalise_edge
from repro.graph.static import Graph

#: Vertex ids of each kind an edge may join.  A frozenset's ``<`` is the
#: proper-subset test, which orders only some pairs.
ID_KINDS = (
    st.integers(),
    st.text(max_size=3),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.frozensets(st.integers(0, 3), max_size=3),
)
#: Two ids of one kind, or of any two kinds.
ID_PAIRS = st.one_of(
    st.sampled_from(ID_KINDS).flatmap(lambda kind: st.tuples(kind, kind)),
    st.tuples(st.one_of(ID_KINDS), st.one_of(ID_KINDS)),
)


def build_snapshots():
    first = Graph(edges=[(1, 2), (2, 3), (3, 4)])
    second = first.copy()
    second.add_edge(4, 1)
    second.remove_edge(2, 3)
    third = second.copy()
    third.add_edge(2, 3)
    return [first, second, third]


class TestEdgeDelta:
    def test_from_iterables_deduplicates_and_canonicalises(self):
        delta = EdgeDelta.from_iterables(inserted=[(2, 1), (1, 2)], removed=[(4, 3)])
        assert delta.inserted == ((1, 2),)
        assert delta.removed == ((3, 4),)
        assert delta.num_changes == 2

    @given(edge=ID_PAIRS)
    @example(edge=(frozenset({1}), frozenset({2})))
    def test_both_orientations_of_an_edge_normalise_alike(self, edge):
        u, v = edge
        assert _normalise_edge((u, v)) == _normalise_edge((v, u))

    def test_reversed_edges_over_partially_ordered_ids_are_one_change(self):
        a, b = frozenset({1}), frozenset({2})
        delta = EdgeDelta.from_iterables(inserted=[(a, b), (b, a)])
        assert len(delta.inserted) == 1
        assert delta.num_changes == 1

    def test_between_computes_symmetric_difference(self):
        first, second, _ = build_snapshots()
        delta = EdgeDelta.between(first, second)
        assert set(delta.inserted) == {(1, 4)}
        assert set(delta.removed) == {(2, 3)}

    def test_apply_transforms_before_into_after(self):
        first, second, _ = build_snapshots()
        delta = EdgeDelta.between(first, second)
        replay = first.copy()
        delta.apply(replay)
        assert replay == second

    def test_apply_ignores_redundant_changes(self):
        graph = Graph(edges=[(1, 2)])
        delta = EdgeDelta.from_iterables(inserted=[(1, 2)], removed=[(5, 6)])
        delta.apply(graph)
        assert graph.num_edges == 1

    def test_reversed_undoes_the_delta(self):
        first, second, _ = build_snapshots()
        delta = EdgeDelta.between(first, second)
        replay = first.copy()
        delta.apply(replay)
        delta.reversed().apply(replay)
        assert replay == first

    def test_is_empty(self):
        assert EdgeDelta().is_empty()
        assert not EdgeDelta.from_iterables(inserted=[(1, 2)]).is_empty()


class TestEdgeDeltaMerge:
    def test_merge_of_nothing_is_empty(self):
        assert EdgeDelta.merge().is_empty()

    def test_merge_unions_disjoint_deltas(self):
        merged = EdgeDelta.merge(
            EdgeDelta.from_iterables(inserted=[(1, 2)]),
            EdgeDelta.from_iterables(removed=[(3, 4)]),
        )
        assert merged.inserted == ((1, 2),)
        assert merged.removed == ((3, 4),)

    def test_last_operation_wins_across_deltas(self):
        insert_then_remove = EdgeDelta.merge(
            EdgeDelta.from_iterables(inserted=[(1, 2)]),
            EdgeDelta.from_iterables(removed=[(1, 2)]),
        )
        assert insert_then_remove.inserted == ()
        assert insert_then_remove.removed == ((1, 2),)
        remove_then_insert = EdgeDelta.merge(
            EdgeDelta.from_iterables(removed=[(1, 2)]),
            EdgeDelta.from_iterables(inserted=[(2, 1)]),  # canonicalised to (1, 2)
        )
        assert remove_then_insert.inserted == ((1, 2),)
        assert remove_then_insert.removed == ()

    def test_merge_equals_sequential_application(self):
        snapshots = build_snapshots()
        deltas = [
            EdgeDelta.between(snapshots[0], snapshots[1]),
            EdgeDelta.between(snapshots[1], snapshots[2]),
        ]
        merged_graph = snapshots[0].copy()
        EdgeDelta.merge(*deltas).apply(merged_graph)
        assert merged_graph == snapshots[2]

    def test_merge_with_base_cancels_round_trips(self):
        base = Graph(edges=[(1, 2)])
        deltas = [
            EdgeDelta.from_iterables(inserted=[(3, 4)]),  # absent edge: insert...
            EdgeDelta.from_iterables(removed=[(3, 4)]),  # ...then remove -> nothing
            EdgeDelta.from_iterables(removed=[(1, 2)]),  # present edge: remove...
            EdgeDelta.from_iterables(inserted=[(1, 2)]),  # ...then re-insert -> nothing
        ]
        assert EdgeDelta.merge(*deltas, base=base).is_empty()
        # without the base the net operations survive as harmless no-ops
        blind = EdgeDelta.merge(*deltas)
        assert blind.num_changes == 2
        replay = base.copy()
        blind.apply(replay)
        assert replay == base

    def test_merge_with_base_drops_plain_noops(self):
        base = Graph(edges=[(1, 2)])
        merged = EdgeDelta.merge(
            EdgeDelta.from_iterables(inserted=[(1, 2)], removed=[(8, 9)]),
            base=base,
        )
        assert merged.is_empty()


class TestSnapshotSequence:
    def test_requires_at_least_one_snapshot(self):
        with pytest.raises(SnapshotError):
            SnapshotSequence([])

    def test_len_iteration_and_indexing(self):
        sequence = SnapshotSequence(build_snapshots())
        assert len(sequence) == 3
        assert sequence.num_snapshots == 3
        assert sequence[0].num_edges == 3
        assert [snapshot.num_edges for snapshot in sequence] == [3, 3, 4]

    def test_indexing_out_of_range_raises(self):
        sequence = SnapshotSequence(build_snapshots())
        with pytest.raises(SnapshotError):
            _ = sequence[7]

    def test_vertex_universe_is_union(self):
        snapshots = build_snapshots()
        snapshots[2].add_vertex(99)
        sequence = SnapshotSequence(snapshots)
        assert 99 in sequence.vertex_universe()

    def test_deltas_reconstruct_snapshots(self):
        sequence = SnapshotSequence(build_snapshots())
        deltas = sequence.deltas()
        assert len(deltas) == 2
        replay = sequence[0].copy()
        for index, delta in enumerate(deltas, start=1):
            delta.apply(replay)
            assert replay == sequence[index]

    def test_truncated(self):
        sequence = SnapshotSequence(build_snapshots())
        truncated = sequence.truncated(2)
        assert truncated.num_snapshots == 2
        with pytest.raises(SnapshotError):
            sequence.truncated(0)
        with pytest.raises(SnapshotError):
            sequence.truncated(9)

    def test_total_edge_changes(self):
        sequence = SnapshotSequence(build_snapshots())
        assert sequence.total_edge_changes() == 3  # (+1, -1) then (+1)


class TestEvolvingGraph:
    def test_round_trip_with_snapshot_sequence(self):
        sequence = SnapshotSequence(build_snapshots())
        evolving = sequence.to_evolving_graph()
        materialised = evolving.to_snapshot_sequence()
        assert materialised.num_snapshots == sequence.num_snapshots
        for original, replayed in zip(sequence, materialised):
            assert original == replayed

    def test_snapshots_are_independent_copies(self):
        evolving = SnapshotSequence(build_snapshots()).to_evolving_graph()
        snapshots = list(evolving.snapshots())
        snapshots[0].add_edge(50, 51)
        assert not evolving.base.has_edge(50, 51)

    def test_snapshot_at(self):
        sequence = SnapshotSequence(build_snapshots())
        evolving = sequence.to_evolving_graph()
        assert evolving.snapshot_at(2) == sequence[2]
        with pytest.raises(SnapshotError):
            evolving.snapshot_at(3)
        with pytest.raises(SnapshotError):
            evolving.snapshot_at(-1)

    def test_truncated_keeps_prefix(self):
        evolving = SnapshotSequence(build_snapshots()).to_evolving_graph()
        truncated = evolving.truncated(2)
        assert truncated.num_snapshots == 2
        with pytest.raises(SnapshotError):
            evolving.truncated(10)

    def test_total_edge_changes(self):
        evolving = SnapshotSequence(build_snapshots()).to_evolving_graph()
        assert evolving.total_edge_changes() == 3
