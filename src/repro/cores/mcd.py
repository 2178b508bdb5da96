"""Max core degree utilities (Definition 6).

The max core degree ``mcd(u)`` is the number of neighbours of ``u`` whose core
number is at least ``core(u)``.  It upper-bounds how much support ``u`` has for
staying in its current core: ``mcd(u) >= core(u)`` always holds, and after an
edge deletion a vertex whose ``mcd`` drops below its core number must have its
core number decreased (Lemma 4).  These are the paper-facing definitions over
the hashable graph; the incremental maintenance kernel
(:mod:`repro.cores.maintenance`) does not call them, and keeps its own
support counts over integer ids.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.errors import VertexNotFoundError
from repro.graph.static import Graph, Vertex


def max_core_degree(graph: Graph, core: Mapping[Vertex, float], vertex: Vertex) -> int:
    """Return ``mcd(vertex)`` with respect to the core numbers in ``core``."""
    if not graph.has_vertex(vertex):
        raise VertexNotFoundError(vertex)
    own_core = core[vertex]
    return sum(1 for neighbour in graph.neighbors(vertex) if core[neighbour] >= own_core)


def max_core_degrees(
    graph: Graph,
    core: Mapping[Vertex, float],
    vertices: Optional[Iterable[Vertex]] = None,
) -> Dict[Vertex, int]:
    """Return ``mcd`` for the given vertices (all vertices when ``None``)."""
    targets = graph.vertices() if vertices is None else vertices
    return {vertex: max_core_degree(graph, core, vertex) for vertex in targets}


def pure_core_degree(graph: Graph, core: Mapping[Vertex, float], vertex: Vertex) -> int:
    """Return ``pcd(vertex)``: neighbours that could support a core increase.

    A neighbour ``w`` counts when ``core(w) > core(vertex)``, or when
    ``core(w) == core(vertex)`` and ``mcd(w) > core(w)`` (so ``w`` itself has
    room to rise together with ``vertex``).  This is the standard refinement
    used to prune the insertion candidate search.
    """
    if not graph.has_vertex(vertex):
        raise VertexNotFoundError(vertex)
    own_core = core[vertex]
    count = 0
    for neighbour in graph.neighbors(vertex):
        neighbour_core = core[neighbour]
        if neighbour_core > own_core:
            count += 1
        elif neighbour_core == own_core and max_core_degree(graph, core, neighbour) > own_core:
            count += 1
    return count
