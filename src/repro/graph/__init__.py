"""Graph substrate: static graphs, snapshot sequences, generators, datasets, IO.

The hashable-vertex adjacency-set :class:`Graph` is the mutable public
representation; :mod:`repro.graph.compact` provides the interning plus flat
CSR structures that the numpy execution backend (:mod:`repro.backends`) is
built on.
"""

from repro.graph.static import Graph
from repro.graph.dynamic import EdgeDelta, EvolvingGraph, SnapshotSequence
from repro.graph.compact import CompactGraph, DynamicCompactAdjacency, VertexInterner

__all__ = [
    "Graph",
    "EdgeDelta",
    "EvolvingGraph",
    "SnapshotSequence",
    "CompactGraph",
    "DynamicCompactAdjacency",
    "VertexInterner",
]
