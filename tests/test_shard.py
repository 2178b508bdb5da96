"""Unit tests for the :mod:`repro.shard` graph partitioners.

Covers the partitioner invariants: total coverage, cut-edge symmetry, edge
conservation, degree balance, boundary tables, and the community
partitioner's cut reduction and determinism.
"""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.graph.compact import CompactGraph
from repro.graph.generators import planted_community_graph
from repro.graph.static import Graph
from repro.shard.partition import (
    CommunityPartitioner,
    DegreeBalancedPartitioner,
    HashPartitioner,
    PARTITIONERS,
    get_partitioner,
    partition_compact_graph,
)


def sample_graph() -> Graph:
    return Graph(
        edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6), (0, 6)],
        vertices=list(range(7)) + ["isolated"],
    )


class TestPartitioners:
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_every_vertex_in_exactly_one_shard(self, partitioner, num_shards):
        cgraph = CompactGraph.from_graph(sample_graph(), ordered=True)
        plan = partition_compact_graph(cgraph, num_shards, partitioner)
        seen = []
        for shard in plan.shards:
            seen.extend(shard.owned)
            # Owner map and ownership agree.
            for gvid in shard.owned:
                assert plan.shard_of[gvid] == shard.shard_id
        assert sorted(seen) == list(range(cgraph.num_vertices))

    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    @pytest.mark.parametrize("num_shards", [2, 3, 5])
    def test_cut_edge_tables_symmetric(self, partitioner, num_shards):
        cgraph = CompactGraph.from_graph(sample_graph(), ordered=True)
        plan = partition_compact_graph(cgraph, num_shards, partitioner)
        for shard in plan.shards:
            for other_id, pairs in shard.cut_edges.items():
                mirrored = sorted(
                    (remote, owned) for owned, remote in pairs
                )
                assert plan.shards[other_id].cut_edges.get(shard.shard_id, []) == mirrored

    def test_edges_conserved_across_shards(self):
        cgraph = CompactGraph.from_graph(sample_graph(), ordered=True)
        plan = partition_compact_graph(cgraph, 3)
        local_entries = sum(
            sum(1 for entry in shard.encoded if entry >= 0) for shard in plan.shards
        )
        cut_entries = sum(shard.num_cut_edges for shard in plan.shards)
        # Every edge contributes two CSR entries overall, split between
        # local entries (both endpoints in one shard) and cut entries.
        assert local_entries + cut_entries == 2 * cgraph.num_edges

    def test_hash_partitioner_uses_id_modulo(self):
        cgraph = CompactGraph.from_graph(sample_graph(), ordered=True)
        assignment = HashPartitioner().assign(cgraph, 3)
        assert assignment == [vid % 3 for vid in range(cgraph.num_vertices)]

    def test_degree_balanced_within_tolerance(self):
        # A skewed star-heavy graph: greedy LPT must still balance loads to
        # within the heaviest single vertex.
        edges = [(0, i) for i in range(1, 30)] + [(1, i) for i in range(40, 50)]
        graph = Graph(edges=edges, vertices=list(range(60)))
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        num_shards = 4
        assignment = DegreeBalancedPartitioner().assign(cgraph, num_shards)
        loads = [0] * num_shards
        for vid, shard in enumerate(assignment):
            loads[shard] += cgraph.degrees[vid] + 1
        assert max(loads) - min(loads) <= max(cgraph.degrees) + 1

    def test_boundary_lists_owned_vertices_with_remote_neighbours(self):
        cgraph = CompactGraph.from_graph(sample_graph(), ordered=True)
        plan = partition_compact_graph(cgraph, 2)
        for shard in plan.shards:
            expected = sorted(
                {owned for pairs in shard.cut_edges.values() for owned, _ in pairs}
            )
            assert shard.boundary == expected

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ParameterError):
            get_partitioner("metis")
        cgraph = CompactGraph.from_graph(sample_graph(), ordered=True)
        with pytest.raises(ParameterError):
            partition_compact_graph(cgraph, 2, "metis")
        with pytest.raises(ParameterError):
            partition_compact_graph(cgraph, 0)


class TestCommunityPartitioner:
    def test_cut_reduction_on_planted_communities(self):
        """Label propagation halves (at least) the hash partitioner's cut."""
        graph = planted_community_graph(
            num_communities=4,
            community_size=30,
            intra_edge_probability=0.3,
            inter_edges=30,
            seed=7,
        )
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        community = partition_compact_graph(cgraph, 4, "community")
        hashed = partition_compact_graph(cgraph, 4, "hash")
        assert community.cut_edge_count * 2 <= hashed.cut_edge_count
        assert community.cut_edge_ratio <= 0.5 * hashed.cut_edge_ratio
        # LPT packing under the block cap keeps shard sizes balanced.
        assert community.balance <= 2.0

    def test_assignment_deterministic(self):
        graph = planted_community_graph(
            num_communities=3,
            community_size=10,
            intra_edge_probability=0.5,
            inter_edges=8,
            seed=11,
        )
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        partitioner = CommunityPartitioner()
        assert partitioner.assign(cgraph, 3) == partitioner.assign(cgraph, 3)

    def test_empty_graph_metadata(self):
        cgraph = CompactGraph.from_graph(Graph(), ordered=True)
        plan = partition_compact_graph(cgraph, 2, "community")
        assert plan.cut_edge_count == 0
        assert plan.cut_edge_ratio == 0.0
        assert plan.balance == 1.0
