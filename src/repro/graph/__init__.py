"""Graph substrate: static graphs, snapshot sequences, generators, datasets, IO.

The hashable-vertex adjacency-set :class:`Graph` is the mutable public
representation; :mod:`repro.graph.compact` provides the interning and the
integer-id adjacency that core maintenance (:mod:`repro.cores.maintenance`)
mirrors the graph into.
"""

from repro.graph.static import Graph
from repro.graph.dynamic import EdgeDelta, EvolvingGraph, SnapshotSequence
from repro.graph.compact import DynamicCompactAdjacency, VertexInterner

__all__ = [
    "Graph",
    "EdgeDelta",
    "EvolvingGraph",
    "SnapshotSequence",
    "DynamicCompactAdjacency",
    "VertexInterner",
]
