"""Core decomposition (Algorithm 1 of the paper) and anchored variants.

The k-core of a graph is its maximal subgraph in which every vertex has degree
at least ``k`` (Definition 1); the core number of a vertex is the largest ``k``
for which it belongs to the k-core (Definition 2).  This module implements the
classic peeling algorithm (repeatedly remove a minimum-degree vertex), which
also yields the vertex removal order.  That order is the static K-order of
Definition 5 (Section 4.1): ``u`` precedes ``v`` when ``core(u) < core(v)``,
or when their cores are equal and ``u`` was peeled first.  It is a legal
peel: no vertex ``v`` has more than ``core(v)`` neighbours after it.

It additionally implements *anchored* core decomposition: the same peeling
process in which a designated anchor set is never removed (anchored vertices
"meet the requirement of k-core regardless of the degree constraint",
Section 2.1).  Anchored vertices receive the core value
:data:`ANCHOR_CORE` (infinity).

The full peel is dispatched through :func:`repro.backends.get_backend`:
every function here that peels accepts ``backend=`` (``"auto"``,
``"dict"``, ``"numpy"``, or an :class:`~repro.backends.ExecutionBackend`
instance) and calls the resolved backend's ``decompose``.  Both backends
produce *identical* core numbers **and** identical removal orders: each
breaks its ties by :func:`repro.ordering.tie_break_key`, the numpy backend
shell by shell.  The k-core itself is one deletion cascade over the
adjacency-set graph, :func:`k_core_cascade`, on no backend: it is a single
O(n + m) pass, which building a snapshot would only add to.
This module also hosts the one integer-id implementation of the region
follower cascade, :func:`compact_marginal_followers`, and of the capped
commit built on it, :func:`commit_anchor_ids`.  Both read a vertex's
neighbours as ``rows[vid]``, so they run unchanged on a bare numpy
snapshot's CSR row view (per-call numpy overhead would dwarf their
region-sized work) and on the maintenance kernel's adjacency sets, where
IncAVT's swap/fill pass and the numpy index over a maintained graph run
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Container,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    MutableSequence,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.errors import (
    ParameterError,
    VertexNotFoundError,
    distinct_vertices,
    require_int,
)
from repro.graph.static import Graph, Vertex

#: Core value assigned to anchored vertices — they can never be peeled.
ANCHOR_CORE: float = math.inf


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of a (possibly anchored) core decomposition.

    Attributes
    ----------
    core:
        Mapping from vertex to core number.  Anchored vertices map to
        :data:`ANCHOR_CORE`.
    order:
        The removal order: vertices in the order the peeling process deleted
        them (anchored vertices, which are never deleted, appear last in a
        deterministic order).
    anchors:
        The anchor set used for the decomposition (empty for the plain case).
    """

    core: Mapping[Vertex, float]
    order: Tuple[Vertex, ...]
    anchors: FrozenSet[Vertex] = frozenset()

    def core_of(self, vertex: Vertex) -> float:
        """Return the core number of ``vertex``."""
        try:
            return self.core[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        """Return the vertices of the k-core (anchors always qualify)."""
        require_int("k", k, 0)
        return {vertex for vertex, value in self.core.items() if value >= k}

    def shell_vertices(self, k: int) -> Set[Vertex]:
        """Return the k-shell: vertices with core number exactly ``k``."""
        require_int("k", k, 0)
        return {vertex for vertex, value in self.core.items() if value == k}

    def degeneracy(self) -> int:
        """Return the largest finite core number (0 for an empty graph)."""
        finite = [int(value) for value in self.core.values() if value != ANCHOR_CORE]
        return max(finite, default=0)


def core_decomposition(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> CoreDecomposition:
    """Run core decomposition on ``graph``.

    Vertices of equal current degree are peeled in a deterministic order so
    repeated runs produce identical removal orders.  The dict backend's
    lazy-deletion heap is O(m log n), more than fast enough for the
    pure-Python experiment scale; the numpy backend runs the same peeling
    as vectorised waves plus a per-shell order pass.
    """
    return anchored_core_decomposition(graph, anchors=(), backend=backend)


def anchored_core_decomposition(
    graph: Graph,
    anchors: Iterable[Vertex],
    backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
) -> CoreDecomposition:
    """Run core decomposition in which ``anchors`` are never removed.

    Anchored vertices still contribute to their neighbours' degrees throughout
    the peeling, which is exactly the anchored k-core semantics of
    Definition 4: the anchored k-core for any ``k`` is
    ``{v : core(v) >= k}`` with anchors mapped to infinity.  Both backends
    produce the same mapping and the same removal order.
    """
    anchor_set = frozenset(distinct_vertices("anchors", anchors))
    for anchor in anchor_set:
        if not graph.has_vertex(anchor):
            raise ParameterError(f"anchor {anchor!r} is not a vertex of the graph")
    return get_backend(backend).decompose(graph, anchor_set)


# ---------------------------------------------------------------------------
# Id cascades
# ---------------------------------------------------------------------------
def compact_marginal_followers(
    rows: Sequence[Iterable[int]],
    k: int,
    candidate_id: int,
    core: Sequence[float],
    region_out: Optional[Set[int]] = None,
) -> Tuple[Set[int], int]:
    """Region-restricted follower cascade over integer ids.

    The id twin of :func:`repro.anchored.followers.marginal_followers`.
    ``rows[vid]`` iterates the neighbour ids of ``vid``: the maintenance
    kernel's adjacency sets (which a numpy snapshot of the maintained graph
    shares), or a bare numpy snapshot's rows
    (:class:`repro.backends.numpy_backend.CsrRows`, which slices a row from
    its CSR or translates one the CSR does not hold).  ``core`` is indexed
    by id (a list or a numpy array) and holds the *current* (possibly
    anchored) core numbers.  Returns ``(follower ids, visited count)``
    where the visited count matches the dict cascade's ``visit_log`` length
    exactly (region pops plus cascade removals).  ``region_out`` receives
    the explored region ids when supplied.
    """
    if k < 1:
        raise ParameterError("k must be >= 1 for follower computation")
    if core[candidate_id] >= k:
        return set(), 0

    target = k - 1
    visited = 0

    region: Set[int] = set()
    stack: List[int] = []
    for neighbour in rows[candidate_id]:
        if core[neighbour] == target and neighbour not in region:
            region.add(neighbour)
            stack.append(neighbour)
    while stack:
        current = stack.pop()
        visited += 1
        for neighbour in rows[current]:
            if (
                core[neighbour] == target
                and neighbour not in region
                and neighbour != candidate_id
            ):
                region.add(neighbour)
                stack.append(neighbour)

    if region_out is not None:
        region_out.update(region)
    if not region:
        return set(), visited

    support: Dict[int, int] = {}
    for vid in region:
        count = 0
        for neighbour in rows[vid]:
            if neighbour == candidate_id:
                count += 1
            elif core[neighbour] >= k:
                count += 1
            elif neighbour in region:
                count += 1
        support[vid] = count

    removal_queue = [vid for vid, count in support.items() if count < k]
    removed: Set[int] = set()
    while removal_queue:
        vid = removal_queue.pop()
        if vid in removed:
            continue
        removed.add(vid)
        visited += 1
        for neighbour in rows[vid]:
            if neighbour in region and neighbour not in removed:
                support[neighbour] -= 1
                if support[neighbour] < k:
                    removal_queue.append(neighbour)
    return region - removed, visited


def commit_anchor_ids(
    rows: Sequence[Iterable[int]],
    core: MutableSequence[float],
    anchor_id: int,
    cap: int,
) -> List[Tuple[int, float]]:
    """Raise ``core`` to the anchored core numbers with ``anchor_id`` added,
    cascading only the levels up to ``cap`` — the id twin of
    :func:`repro.anchored.followers.commit_anchor_cores`, over the same
    ``rows`` as :func:`compact_marginal_followers`.  The numpy kernel's
    ``commit_anchor`` runs it on its snapshot's rows with the numpy core
    array as storage; IncAVT's swap/fill pass runs it on the maintenance
    kernel's adjacency sets and a list copy of its core numbers.

    Adding one anchor raises every other core number by at most 1, and the
    vertices that rise to level ``j`` are the anchor's level-``j`` followers
    on the old numbers: one :func:`compact_marginal_followers` cascade per
    level
    ``j - 1 ∈ {core(u) : u ∈ N(anchor), core(anchor) <= core(u) < cap}``,
    all reading the old numbers, so the writes happen after them.  Capping
    keeps ``min(core, cap)`` exact (see ``commit_anchor_cores``).

    Returns ``[(vertex id, previous value)]`` for every changed vertex, the
    anchor first.
    """
    x = anchor_id
    anchor_core = core[x]
    levels: Set[int] = set()
    for neighbour in rows[x]:
        value = core[neighbour]
        if anchor_core <= value < cap:
            levels.add(int(value) + 1)

    touched: List[Tuple[int, float]] = [(x, anchor_core)]
    risers_by_level: Dict[int, Set[int]] = {}
    for j in levels:
        risers, _ = compact_marginal_followers(rows, j, x, core)
        if risers:
            risers_by_level[j] = risers
            touched.extend((vid, j - 1) for vid in risers)
    for j, risers in risers_by_level.items():
        for vid in risers:
            core[vid] = j
    core[x] = ANCHOR_CORE
    return touched


def core_numbers(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Dict[Vertex, int]:
    """Return ``{vertex: core number}`` with plain integer values."""
    decomposition = core_decomposition(graph, backend=backend)
    return {vertex: int(value) for vertex, value in decomposition.core.items()}


def k_core_cascade(
    graph: Graph, k: int, anchors: Container[Vertex] = frozenset()
) -> Set[Vertex]:
    """The (anchored) k-core of ``graph`` by one deletion cascade.

    Every vertex of degree below ``k`` is deleted, then every neighbour
    that the deletions leave below ``k``, until none is left; anchors are
    never deleted and keep supporting their neighbours.  The cascade is
    confluent, so the survivors are the anchored k-core whatever the order.
    The arguments are trusted: :func:`k_core`,
    :func:`repro.anchored.followers.anchored_k_core` and the other callers
    check them first.
    """
    degrees = {vertex: graph.degree(vertex) for vertex in graph.vertices()}
    removed: Set[Vertex] = set()
    queue = [
        vertex
        for vertex, degree in degrees.items()
        if degree < k and vertex not in anchors
    ]
    while queue:
        vertex = queue.pop()
        if vertex in removed:
            continue
        removed.add(vertex)
        for neighbour in graph.neighbors(vertex):
            if neighbour in removed or neighbour in anchors:
                continue
            degrees[neighbour] -= 1
            if degrees[neighbour] < k:
                queue.append(neighbour)
    return {vertex for vertex in degrees if vertex not in removed}


def k_core(graph: Graph, k: int) -> Set[Vertex]:
    """Return the vertex set of the k-core of ``graph``.

    One deletion cascade (:func:`k_core_cascade`), which is faster than a
    full decomposition when only a single ``k`` is needed.  An
    :class:`~repro.anchored.anchored_core.AnchoredCoreIndex` reads the
    plain k-core from its own capped core numbers instead.
    """
    require_int("k", k, 0)
    return k_core_cascade(graph, k)


def k_shell(
    graph: Graph, k: int, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Set[Vertex]:
    """Return the k-shell of ``graph`` (vertices whose core number equals ``k``)."""
    decomposition = core_decomposition(graph, backend=backend)
    return decomposition.shell_vertices(k)


def degeneracy(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> int:
    """Return the degeneracy of ``graph`` (its largest non-empty core index)."""
    return core_decomposition(graph, backend=backend).degeneracy()
