"""Graph substrate: static graphs, snapshot sequences, generators, datasets, IO.

The hashable-vertex adjacency-set :class:`Graph` is the mutable public
representation.  A maintained graph (:mod:`repro.cores.maintenance`) is the
same graph interned into integer ids, :class:`repro.graph.static.IdGraph`,
whose neighbour sets are live views over its id rows.
"""

from repro.graph.static import Graph
from repro.graph.dynamic import EdgeDelta, EvolvingGraph, SnapshotSequence

__all__ = [
    "Graph",
    "EdgeDelta",
    "EvolvingGraph",
    "SnapshotSequence",
]
