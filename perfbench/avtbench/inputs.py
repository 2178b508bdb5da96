"""Input generation, kept outside every timed region.

The benchmark owns its generators, so a change to the library's generators
cannot change what the benchmark measures.  Both follow the procedures the
library and the paper use:

* :func:`dataset_edges` — the fixed graph a workload starts from, the way
  the paper's experiments start from a fixed dataset.  It is a Chung–Lu
  graph: vertex ``r`` gets the weight ``(r + 1) ** -1.2`` and edge endpoints
  are drawn proportionally to weight until ``m`` distinct non-loop edges
  exist.  Its generator is seeded by the graph's size alone, so every
  ``--seed`` measures the same dataset, and run-to-run spread does not
  depend on how many slow-path vertices one random graph happens to have.
* :class:`EdgeStream` — the paper's perturbation procedure (Section 6.1),
  seeded by ``--seed``: every step removes a uniform 100–250 existing edges
  and inserts a uniform 100–250 new ones.  It keeps an edge list plus a
  position index, so a step costs O(changes) instead of the O(m log m)
  re-sort the library's ``perturb_snapshots`` pays at every step.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Tuple

from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph

Edge = Tuple[int, int]

#: Per-step removal and insertion counts of the paper's procedure.
STEP_RANGE = (100, 250)

#: Exponent of the Chung–Lu vertex weights (the library generator's default).
SKEW = 1.2


def dataset_edges(num_vertices: int, num_edges: int) -> List[Edge]:
    """The fixed Chung–Lu dataset of this size: distinct ``(u, v)``, ``u < v``, sorted."""
    rng = random.Random(f"dataset/{num_vertices}/{num_edges}")
    cumulative = list(itertools.accumulate((rank + 1) ** -SKEW for rank in range(num_vertices)))
    population = range(num_vertices)
    edges = set()
    while len(edges) < num_edges:
        draws = rng.choices(population, cum_weights=cumulative, k=2 * (num_edges - len(edges)) + 64)
        for u, v in zip(draws[0::2], draws[1::2]):
            if u != v:
                edges.add((u, v) if u < v else (v, u))
                if len(edges) == num_edges:
                    break
    return sorted(edges)


def build_graph(num_vertices: int, edges: List[Edge]) -> Graph:
    """The library graph over vertices ``0..n-1`` with ``edges``."""
    return Graph(edges=edges, vertices=range(num_vertices))


class EdgeStream:
    """The paper's perturbation procedure over a live edge set."""

    def __init__(self, num_vertices: int, edges: List[Edge], rng: random.Random) -> None:
        self._num_vertices = num_vertices
        self._edges: List[Edge] = list(edges)
        self._position: Dict[Edge, int] = {edge: index for index, edge in enumerate(self._edges)}
        self._rng = rng
        self._leftover: List[Tuple[bool, int, int]] = []

    def current_edges(self) -> List[Edge]:
        """The edge set after every step taken so far, sorted."""
        return sorted(self._edges)

    def step(self) -> Tuple[List[Edge], List[Edge]]:
        """Advance one snapshot; return ``(removed, inserted)`` edge lists."""
        rng = self._rng
        removed: List[Edge] = []
        for _ in range(min(rng.randint(*STEP_RANGE), len(self._edges))):
            edge = self._edges[rng.randrange(len(self._edges))]
            self._drop(edge)
            removed.append(edge)
        gone = set(removed)
        inserted: List[Edge] = []
        target = rng.randint(*STEP_RANGE)
        while len(inserted) < target:
            u = rng.randrange(self._num_vertices)
            v = rng.randrange(self._num_vertices)
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in self._position or edge in gone:
                continue
            self._position[edge] = len(self._edges)
            self._edges.append(edge)
            inserted.append(edge)
        return removed, inserted

    def _drop(self, edge: Edge) -> None:
        index = self._position.pop(edge)
        last = self._edges.pop()
        if last != edge:
            self._edges[index] = last
            self._position[last] = index

    def deltas(self, count: int) -> List[EdgeDelta]:
        """``count`` consecutive snapshot deltas."""
        result = []
        for _ in range(count):
            removed, inserted = self.step()
            result.append(EdgeDelta.from_iterables(inserted=inserted, removed=removed))
        return result

    def events(self, count: int) -> List[Tuple[bool, int, int]]:
        """``count`` single-edge events ``(is_insert, u, v)``, step by step.

        Each step's removals come first, then its insertions, so every event
        is effective against the graph the previous events produced.  Events
        of a step cut off by ``count`` open the next call.
        """
        result = self._leftover
        while len(result) < count:
            removed, inserted = self.step()
            result.extend((False, u, v) for u, v in removed)
            result.extend((True, u, v) for u, v in inserted)
        self._leftover = result[count:]
        return result[:count]
