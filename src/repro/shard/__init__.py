"""Graph partitioning into disjoint shards (:mod:`repro.shard.partition`).

Pluggable partitioners (hash-by-id default, degree-balanced greedy, and a
locality-aware community partitioner that minimises cut edges) turn an
interned CSR snapshot into per-shard CSR states with explicit boundary-vertex
and cut-edge tables plus measured partition quality (cut-edge count/ratio,
balance).
"""

from repro.shard.partition import (
    CommunityPartitioner,
    DegreeBalancedPartitioner,
    HashPartitioner,
    PARTITIONERS,
    ShardPlan,
    ShardState,
    get_partitioner,
    partition_compact_graph,
)

__all__ = [
    "CommunityPartitioner",
    "DegreeBalancedPartitioner",
    "HashPartitioner",
    "PARTITIONERS",
    "ShardPlan",
    "ShardState",
    "get_partitioner",
    "partition_compact_graph",
]
