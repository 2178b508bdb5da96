"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import random
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx
import pytest

from repro.anchored.followers import compute_followers, follower_gain, marginal_followers
from repro.cores.decomposition import anchored_core_decomposition, core_numbers
from repro.cores.maintenance import CoreMaintainer
from repro.graph.generators import barabasi_albert_graph, chung_lu_graph, erdos_renyi_graph
from repro.graph.datasets import toy_example_evolving_graph, toy_example_graph
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph, IdGraph, Vertex
from repro.ordering import tie_break_key


def to_networkx(graph: Graph) -> nx.Graph:
    """Convert a repro Graph into a networkx Graph (used as an oracle)."""
    converted = nx.Graph()
    converted.add_nodes_from(graph.vertices())
    converted.add_edges_from(graph.edges())
    return converted


def random_graph(seed: int, num_vertices: int = 40, num_edges: int = 80) -> Graph:
    """Small deterministic random graph for unit tests."""
    return erdos_renyi_graph(num_vertices, num_edges, seed=seed)


def reference_greedy(
    graph: Graph, k: int, budget: int, initial_anchors: Iterable[Vertex] = ()
) -> Tuple[Tuple[Vertex, ...], FrozenSet[Vertex], int, int, int]:
    """Greedy (Algorithm 2) from definitions only: no ``AnchoredCoreIndex``.

    Each round scans every vertex whose exact anchored core number (a full
    dict peel) is below ``k``, in tie-break order, keeps the first one with
    a strictly larger :func:`follower_gain`, and stops on zero gain.
    Theorem-3 pruning only skips vertices that gain nothing, so this
    selects what :class:`~repro.anchored.greedy.GreedyAnchoredKCore` must.

    The paper's counters come from the same peel.  Each round evaluates
    the Theorem-3 candidates: vertices below ``k`` with a ``(k-1)``-shell
    neighbour later in the removal order.  Each one counts the length of
    its :func:`marginal_followers` visit log, at least 1.  Returns
    ``(anchors, followers, anchored core size, candidates evaluated,
    vertices visited)``.
    """
    anchors: List[Vertex] = list(dict.fromkeys(initial_anchors))
    evaluated = visited = 0
    while len(anchors) < budget:
        decomposition = anchored_core_decomposition(graph, anchors, backend="dict")
        core = decomposition.core
        rank = {vertex: position for position, vertex in enumerate(decomposition.order)}
        for u, value in core.items():
            if value < k and any(
                core[v] == k - 1 and rank[v] > rank[u] for v in graph.neighbors(u)
            ):
                visit_log: List[Vertex] = []
                marginal_followers(graph, k, u, core, visit_log)
                evaluated += 1
                visited += max(len(visit_log), 1)
        best, best_gain = None, 0
        for vertex in sorted((v for v, value in core.items() if value < k), key=tie_break_key):
            gain = len(follower_gain(graph, k, anchors, vertex))
            if gain > best_gain:
                best, best_gain = vertex, gain
        if best is None:
            break
        anchors.append(best)
    followers = compute_followers(graph, k, anchors)
    core = anchored_core_decomposition(graph, anchors, backend="dict").core
    size = sum(1 for value in core.values() if value >= k)
    return tuple(anchors), frozenset(followers), size, evaluated, visited


def shell_components(graph: Graph, shell) -> List[Set]:
    """The connected components of the subgraph ``shell`` induces."""
    members = set(shell)
    components: List[Set] = []
    seen: Set = set()
    for root in shell:
        if root in seen:
            continue
        component = {root}
        stack = [root]
        while stack:
            for w in graph.neighbors(stack.pop()):
                if w in members and w not in component:
                    component.add(w)
                    stack.append(w)
        seen |= component
        components.append(component)
    return components


class _CoreById:
    """A ``{vertex: core}`` map read by the maintained graph's ids."""

    def __init__(self, vertex_core: Dict[Vertex, int], vertices: List[Vertex]) -> None:
        self._vertex_core = vertex_core
        self._vertices = vertices

    def __getitem__(self, vid: int) -> int:
        return self._vertex_core[self._vertices[vid]]

    def __iter__(self) -> Iterator[int]:
        return map(self._vertex_core.__getitem__, self._vertices)


class ReferenceMaintenanceKernel:
    """Core maintenance straight from Lemmas 1-4 over the hashable graph.

    The maintenance twin of :func:`reference_greedy`: it implements the
    surface :class:`~repro.cores.maintenance.CoreMaintainer` calls on its
    kernel (``icore``, ``add_vertex``, ``insert`` and ``remove``) with no id
    lists and no level sets (its ``icore`` reads a ``{vertex: core}`` map
    by id), so swapping it into a second maintainer runs the maintainer's
    own updates over an independent implementation of the traversals.  The
    maintainer speaks the maintained graph's ids to its kernel, and hands
    it the touched set and the net-change map to record into; this one
    translates the ids to vertices at its boundary, walks the graph in
    vertex space (``neighbors``), counts supports over whole neighbourhoods
    and has no shortcut for any case.  Like the maintainer's kernel, it is
    called after the maintainer has written the edge to the graph.
    :func:`reference_delta_effect` checks ``apply_delta``'s bookkeeping
    without any of this.
    """

    def __init__(self, graph: IdGraph, core: Dict[Vertex, int]) -> None:
        self._graph = graph
        self.vertex_core = dict(core)
        self.icore = _CoreById(self.vertex_core, graph.id_vertices)

    def add_vertex(self, vid: int) -> None:
        self.vertex_core[self._graph.id_vertices[vid]] = 0

    def insert(self, u_id: int, v_id: int, touched: Set[int], net: Dict[int, int]) -> int:
        """Insertion traversal; records as the maintainer's kernel does."""
        return self._by_id(self._insert, u_id, v_id, touched, net, 1)

    def remove(self, u_id: int, v_id: int, touched: Set[int], net: Dict[int, int]) -> int:
        """Deletion cascade; records as the maintainer's kernel does."""
        return self._by_id(self._remove, u_id, v_id, touched, net, -1)

    def _by_id(
        self, traversal, u_id: int, v_id: int, touched: Set[int], net: Dict[int, int], step: int
    ) -> int:
        """Run ``traversal`` on the endpoints' vertices and record its result
        by id: the endpoints and every visited id into ``touched``, ``step``
        per changed id into ``net``; return the number of visited ids."""
        vertices, ids = self._graph.id_vertices, self._graph.ids
        changed, visited = traversal(vertices[u_id], vertices[v_id])
        touched.update((u_id, v_id), map(ids.__getitem__, visited))
        for w in changed:
            net[ids[w]] = net.get(ids[w], 0) + step
        return len(visited)

    def _insert(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        """Insertion traversal; returns ``(increased, visited)``."""
        core = self.vertex_core
        neighbors = self._graph.neighbors
        root_core = min(core[u], core[v])
        # Subcore: shell-root_core vertices reachable from the roots through
        # shell-root_core vertices.  Only these can rise, and by at most 1.
        candidates: Set[Vertex] = {w for w in (u, v) if core[w] == root_core}
        stack = list(candidates)
        while stack:
            for neighbour in neighbors(stack.pop()):
                if core[neighbour] == root_core and neighbour not in candidates:
                    candidates.add(neighbour)
                    stack.append(neighbour)
        # Eviction: a candidate rises only if it keeps more than root_core
        # neighbours among (higher-core vertices ∪ surviving candidates).
        support = {
            w: sum(1 for x in neighbors(w) if core[x] > root_core or x in candidates)
            for w in candidates
        }
        evict_queue = [w for w, count in support.items() if count <= root_core]
        evicted: Set[Vertex] = set()
        while evict_queue:
            w = evict_queue.pop()
            if w in evicted:
                continue
            evicted.add(w)
            for x in neighbors(w):
                if x in candidates and x not in evicted:
                    support[x] -= 1
                    if support[x] <= root_core:
                        evict_queue.append(x)
        increased = candidates - evicted
        for w in increased:
            core[w] = root_core + 1
        return increased, candidates

    def _remove(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        """Deletion cascade; returns ``(decreased, visited)``."""
        core = self.vertex_core
        neighbors = self._graph.neighbors
        root_core = min(core[u], core[v])
        # Support of a shell-root_core vertex: neighbours with core >=
        # root_core.  A vertex drops when its support falls below its core.
        support: Dict[Vertex, int] = {}
        visited: Set[Vertex] = set()
        dropped: Set[Vertex] = set()
        queue: List[Vertex] = []
        for w in (u, v):
            if core[w] == root_core and w not in dropped:
                visited.add(w)
                support[w] = sum(1 for x in neighbors(w) if core[x] >= root_core)
                if support[w] < root_core:
                    dropped.add(w)
                    queue.append(w)
        while queue:
            w = queue.pop()
            # Neighbours are visited before core(w) drops, so a lazily
            # computed support still counts w and the decrement removes it.
            for x in neighbors(w):
                if core[x] != root_core or x in dropped:
                    continue
                visited.add(x)
                if x not in support:
                    support[x] = sum(1 for y in neighbors(x) if core[y] >= root_core)
                support[x] -= 1
                if support[x] < root_core:
                    dropped.add(x)
                    queue.append(x)
            core[w] = root_core - 1
        return dropped, visited


def reference_maintainer(graph: Graph) -> CoreMaintainer:
    """A :class:`CoreMaintainer` of ``graph`` running the reference kernel.

    Its starting core numbers come from the dict backend's full peel, not
    from the maintainer's own set-up cascade.
    """
    maintainer = CoreMaintainer(graph)
    maintainer._kernel = ReferenceMaintenanceKernel(
        maintainer.graph, core_numbers(maintainer.graph, backend="dict")
    )
    return maintainer


def reference_delta_effect(
    graph: Graph, delta: EdgeDelta, k: Optional[int] = None
) -> Tuple[Dict[str, object], Dict[Vertex, int]]:
    """What :meth:`CoreMaintainer.apply_delta` must report, from definitions only.

    Shares no code with the maintainer: it applies ``delta`` to a plain
    :class:`Graph` copy of ``graph`` edge by edge, insertions first, skips
    the edges that change nothing, and recomputes every core number with
    the dict backend's full peel after each effective edge.  For each edge,
    ``r`` is the pre-edge core number of its lower endpoint (0 for a new
    vertex):

    - an insertion visits the vertices of pre-edge core ``r`` reachable from
      the endpoints at ``r`` through such vertices, in the graph with the
      edge;
    - a removal visits the endpoints at ``r`` and every pre-edge-core-``r``
      neighbour of a vertex whose core number fell.

    The eight :class:`~repro.cores.maintenance.DeltaEffect` fields follow
    from those visits and the recomputed cores alone.  Returns the fields
    by name and the core numbers after the delta.
    """
    graph = graph.copy()
    start = core_numbers(graph, backend="dict")
    core = dict(start)
    fields: Dict[str, object] = {
        "increased": set(),
        "decreased": set(),
        "insertion_touched": set(),
        "deletion_touched": set(),
    }
    visited = 0
    for inserting, edges in ((True, delta.inserted), (False, delta.removed)):
        touched = fields["insertion_touched" if inserting else "deletion_touched"]
        for u, v in edges:
            if graph.has_edge(u, v) == inserting:
                continue
            before = {**core, u: core.get(u, 0), v: core.get(v, 0)}
            if inserting:
                graph.add_edge(u, v)
            else:
                graph.remove_edge(u, v)
            core = core_numbers(graph, backend="dict")
            r = min(before[u], before[v])
            visits = {w for w in (u, v) if before[w] == r}
            if inserting:
                stack = list(visits)
                while stack:
                    for x in graph.neighbors(stack.pop()):
                        if before[x] == r and x not in visits:
                            visits.add(x)
                            stack.append(x)
                fields["increased"] |= {w for w in core if core[w] > before[w]}
            else:
                fell = {w for w in core if core[w] < before[w]}
                visits |= {x for w in fell for x in graph.neighbors(w) if before[x] == r}
                fields["decreased"] |= fell
            touched.update((u, v))
            touched |= visits
            visited += len(visits)
    touched_all = fields["insertion_touched"] | fields["deletion_touched"]
    fields["pre_update_core"] = {vertex: start.get(vertex, 0) for vertex in touched_all}
    for phase in ("insertion", "deletion"):
        fields[f"{phase}_affected"] = (
            set()
            if k is None
            else {vertex for vertex in fields[f"{phase}_touched"] if core[vertex] == k - 1}
        )
    fields["visited"] = visited
    return fields, core


def section_regions(path) -> Dict[str, Tuple[int, int]]:
    """``{name: (start, length)}`` byte regions of a checkpoint file.

    Covers the JSON manifest (as ``"manifest"``) and every section it lists.
    """
    with open(path, "rb") as handle:
        header = handle.readline()
        manifest_len = int(header.split()[2])
        manifest = json.loads(handle.read(manifest_len))
    regions = {"manifest": (len(header), manifest_len)}
    offset = len(header) + manifest_len
    for section in manifest["sections"]:
        regions[section["name"]] = (offset, section["length"])
        offset += section["length"]
    return regions


def flip_section_byte(path, section: str) -> None:
    """Invert the middle byte of one region of a checkpoint file."""
    start, length = section_regions(path)[section]
    assert length > 0, f"checkpoint region {section!r} is empty"
    position = start + length // 2
    with open(path, "r+b") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))


@pytest.fixture
def toy_graph() -> Graph:
    """The 17-user Figure-1 style community."""
    return toy_example_graph()


@pytest.fixture
def toy_evolving():
    """Two-snapshot evolving version of the toy community."""
    return toy_example_evolving_graph()


@pytest.fixture
def triangle_graph() -> Graph:
    """A single triangle plus one pendant vertex."""
    graph = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4)])
    return graph


@pytest.fixture
def ba_graph() -> Graph:
    """A small Barabási–Albert graph with a non-trivial core structure."""
    return barabasi_albert_graph(60, 3, seed=11)


@pytest.fixture
def cl_graph() -> Graph:
    """A small Chung–Lu graph with a graded shell structure."""
    return chung_lu_graph(80, 240, skew=1.2, seed=5)


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for tests that need randomness."""
    return random.Random(1234)
