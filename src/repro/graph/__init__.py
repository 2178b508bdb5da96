"""Graph substrate: static graphs, snapshot sequences, generators, datasets, IO.

The hashable-vertex adjacency-set :class:`Graph` is the mutable public
representation; :mod:`repro.graph.compact` provides the interning plus flat
CSR structures that the numpy execution backend (:mod:`repro.backends`) is
built on.  The backend constants and the resolution rule live in
:mod:`repro.backends`; they are re-exported here for backwards
compatibility.
"""

from repro.graph.static import Graph
from repro.graph.dynamic import EdgeDelta, EvolvingGraph, SnapshotSequence
from repro.graph.compact import (
    BACKEND_AUTO,
    BACKEND_DICT,
    BACKEND_NUMPY,
    BACKENDS,
    CompactGraph,
    DynamicCompactAdjacency,
    VertexInterner,
    resolve_backend,
)

__all__ = [
    "Graph",
    "EdgeDelta",
    "EvolvingGraph",
    "SnapshotSequence",
    "BACKEND_AUTO",
    "BACKEND_DICT",
    "BACKEND_NUMPY",
    "BACKENDS",
    "CompactGraph",
    "DynamicCompactAdjacency",
    "VertexInterner",
    "resolve_backend",
]
