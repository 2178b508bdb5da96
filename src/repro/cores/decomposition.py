"""Core decomposition (Algorithm 1 of the paper) and anchored variants.

The k-core of a graph is its maximal subgraph in which every vertex has degree
at least ``k`` (Definition 1); the core number of a vertex is the largest ``k``
for which it belongs to the k-core (Definition 2).  This module implements the
classic peeling algorithm (repeatedly remove a minimum-degree vertex), which
also yields the vertex removal order that seeds the K-order index of
Section 4.1.

It additionally implements *anchored* core decomposition: the same peeling
process in which a designated anchor set is never removed (anchored vertices
"meet the requirement of k-core regardless of the degree constraint",
Section 2.1).  Anchored vertices receive the core value
:data:`ANCHOR_CORE` (infinity).

Execution is dispatched through the :mod:`repro.backends` registry: every
function here accepts ``backend=`` (a registered name, ``"auto"``, or an
:class:`~repro.backends.ExecutionBackend` instance) and calls the resolved
backend's kernel.  All registered backends produce *identical* core numbers
**and** identical removal orders — the compact and numpy snapshots intern
vertices in tie-break order so the integer id doubles as the deterministic
tie-break rank.  This module also
hosts the flat integer-array kernel primitives (:func:`compact_peel`,
:func:`compact_k_core_ids`, and the capped index kernels
:func:`capped_cores_ids`, :func:`commit_anchor_ids` and
:func:`shell_order_ids`) that the compact backend is built from.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    MutableSequence,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.backends import (
    BACKEND_AUTO,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    ExecutionBackend,
    get_backend,
)
from repro.errors import ParameterError
from repro.graph.compact import CompactGraph
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
        return self.core[vertex]

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        """Return the vertices of the k-core (anchors always qualify)."""
        return {vertex for vertex, value in self.core.items() if value >= k}

    def shell_vertices(self, k: int) -> Set[Vertex]:
        """Return the k-shell: vertices with core number exactly ``k``."""
        return {vertex for vertex, value in self.core.items() if value == k}

    def shells(self) -> Dict[int, List[Vertex]]:
        """Return ``{core value: vertices in removal order}`` for finite cores."""
        grouped: Dict[int, List[Vertex]] = {}
        for vertex in self.order:
            value = self.core[vertex]
            if value == ANCHOR_CORE:
                continue
            grouped.setdefault(int(value), []).append(vertex)
        return grouped

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
    pure-Python experiment scale; the compact and numpy backends run the
    same peeling over flat int / numpy arrays.
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
    ``{v : core(v) >= k}`` with anchors mapped to infinity.  Every registered
    backend produces the same mapping and the same removal order.
    """
    anchor_set = frozenset(anchors)
    for anchor in anchor_set:
        if not graph.has_vertex(anchor):
            raise ParameterError(f"anchor {anchor!r} is not a vertex of the graph")
    return get_backend(
        backend, graph.num_vertices, workload=WORKLOAD_AMORTIZED
    ).decompose(graph, anchor_set)


# ---------------------------------------------------------------------------
# Compact (flat integer-array) kernels
# ---------------------------------------------------------------------------
def compact_peel(
    cgraph: CompactGraph, anchor_ids: Iterable[int] = ()
) -> Tuple[List[float], List[int]]:
    """Peel a compact snapshot; return ``(core values, removal order)`` by id.

    ``cgraph`` must be *ordered* (id == tie-break rank) so that the packed
    single-int heap entries ``degree * n + id`` reproduce the dict backend's
    deterministic removal order exactly.  Anchored ids receive
    :data:`ANCHOR_CORE` and are appended to the order last, sorted by id.
    """
    if not cgraph.ordered:
        raise ParameterError("compact_peel requires an ordered CompactGraph")
    n = cgraph.num_vertices
    core: List[float] = [0] * n
    order: List[int] = []
    if n == 0:
        return core, order

    indptr = cgraph.indptr
    indices = cgraph.indices
    effective = list(cgraph.degrees)
    is_anchor = bytearray(n)
    for anchor_id in anchor_ids:
        is_anchor[anchor_id] = 1
    removed = bytearray(n)

    heap = [effective[vid] * n + vid for vid in range(n) if not is_anchor[vid]]
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop

    current_core = 0
    while heap:
        entry = heappop(heap)
        degree, vid = divmod(entry, n)
        if removed[vid] or degree != effective[vid]:
            continue
        if degree > current_core:
            current_core = degree
        core[vid] = current_core
        order.append(vid)
        removed[vid] = 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if is_anchor[neighbour] or removed[neighbour]:
                continue
            slack = effective[neighbour] - 1
            effective[neighbour] = slack
            heappush(heap, slack * n + neighbour)

    for vid in range(n):
        if is_anchor[vid]:
            core[vid] = ANCHOR_CORE
            order.append(vid)
    return core, order


def build_shell_index(items: Iterable[Tuple[object, float]]) -> Dict[float, Set[object]]:
    """``{core value: member set}`` from ``(member, core value)`` pairs.

    The shell index behind the kernels' O(#levels)/O(|shell|) size queries;
    rebuilt on every refresh and patched by :func:`apply_shell_moves`
    on incremental commits.
    """
    shells: Dict[float, Set[object]] = {}
    for member, value in items:
        members = shells.get(value)
        if members is None:
            members = shells[value] = set()
        members.add(member)
    return shells


def apply_shell_moves(shells, touched, core) -> None:
    """Move every touched member from its old shell to its current one.

    ``touched`` is the ``[(member, old core value)]`` list an incremental
    commit returns, ``core`` the already-updated core lookup (mapping or
    id-indexed array).  Emptied shells are dropped so iteration over the
    index never visits dead levels.
    """
    for member, old in touched:
        members = shells.get(old)
        if members is not None:
            members.discard(member)
            if not members:
                del shells[old]
        value = core[member]
        members = shells.get(value)
        if members is None:
            members = shells[value] = set()
        members.add(member)


def _region_risers(
    indptr: Sequence[int],
    indices: Sequence[int],
    core: Sequence[float],
    anchor_id: int,
    j: int,
) -> Set[int]:
    """Vertices of (old) shell ``j - 1`` that the new anchor lifts into the
    anchored j-core: the region-restricted survival cascade of
    :func:`repro.anchored.followers.compact_marginal_followers`, without the
    instrumentation (this is index maintenance, not candidate evaluation)."""
    target = j - 1
    region: Set[int] = set()
    stack: List[int] = []
    for position in range(indptr[anchor_id], indptr[anchor_id + 1]):
        neighbour = indices[position]
        if core[neighbour] == target and neighbour not in region:
            region.add(neighbour)
            stack.append(neighbour)
    while stack:
        current = stack.pop()
        for position in range(indptr[current], indptr[current + 1]):
            neighbour = indices[position]
            if (
                core[neighbour] == target
                and neighbour not in region
                and neighbour != anchor_id
            ):
                region.add(neighbour)
                stack.append(neighbour)
    if not region:
        return region

    support: Dict[int, int] = {}
    for vid in region:
        count = 0
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if neighbour == anchor_id:
                count += 1
            elif core[neighbour] >= j:
                count += 1
            elif neighbour in region:
                count += 1
        support[vid] = count
    removal_queue = [vid for vid, count in support.items() if count < j]
    removed: Set[int] = set()
    while removal_queue:
        vid = removal_queue.pop()
        if vid in removed:
            continue
        removed.add(vid)
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if neighbour in region and neighbour not in removed:
                support[neighbour] -= 1
                if support[neighbour] < j:
                    removal_queue.append(neighbour)
    return region - removed


def shell_order_ids(
    indptr: Sequence[int],
    indices: Sequence[int],
    core: Sequence[float],
    members: List[int],
    level: int,
) -> List[int]:
    """Removal order within one shell (the Phase-B reconstruction).

    With core numbers fixed, the reference heap peel's order restricted to
    shell ``level`` is reproduced by a packed-heap cascade over the
    same-shell subgraph: members ascend by id (id == tie-break rank on
    ordered snapshots), each starts at its count of ``core >= level``
    neighbours (anchors are infinity and count), and only same-shell
    removals decrement — the invariant the numpy backend already builds its
    whole order reconstruction on.
    """
    size = len(members)
    position = {vid: local for local, vid in enumerate(members)}
    eff_local = [0] * size
    adjacency: List[List[int]] = [[] for _ in range(size)]
    for local, vid in enumerate(members):
        count = 0
        for slot in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[slot]
            if core[neighbour] >= level:
                count += 1
            if core[neighbour] == level:
                neighbour_local = position.get(neighbour)
                if neighbour_local is not None:
                    adjacency[local].append(neighbour_local)
        eff_local[local] = count

    heap = [eff_local[local] * size + local for local in range(size)]
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    popped = bytearray(size)
    shell_order: List[int] = []
    while heap:
        entry = heappop(heap)
        degree, local = divmod(entry, size)
        if popped[local] or degree != eff_local[local]:
            continue
        popped[local] = 1
        shell_order.append(members[local])
        for neighbour in adjacency[local]:
            if not popped[neighbour]:
                slack = eff_local[neighbour] - 1
                eff_local[neighbour] = slack
                heappush(heap, slack * size + neighbour)
    return shell_order


def commit_anchor_ids(
    indptr: Sequence[int],
    indices: Sequence[int],
    core: MutableSequence[float],
    anchor_id: int,
    cap: int,
) -> List[Tuple[int, float]]:
    """Raise ``core`` to the anchored core numbers with ``anchor_id`` added,
    cascading only the levels up to ``cap`` — the id-array twin of
    :func:`repro.anchored.followers.commit_anchor_cores` behind the compact
    and numpy kernels' ``commit_anchor`` (``core`` may be a list or a numpy
    array).

    Adding one anchor raises every other core number by at most 1, and the
    vertices that rise to level ``j`` are the anchor's level-``j`` followers
    on the old numbers: one region cascade per level
    ``j - 1 ∈ {core(u) : u ∈ N(anchor), core(anchor) <= core(u) < cap}``,
    all reading the old numbers, so the writes happen after them.  Capping
    keeps ``min(core, cap)`` exact (see ``commit_anchor_cores``).

    Returns ``[(vertex id, previous value)]`` for every changed vertex, the
    anchor first.
    """
    x = anchor_id
    anchor_core = core[x]
    levels: Set[int] = set()
    for position in range(indptr[x], indptr[x + 1]):
        value = core[indices[position]]
        if anchor_core <= value < cap:
            levels.add(int(value) + 1)

    touched: List[Tuple[int, float]] = [(x, anchor_core)]
    risers_by_level: Dict[int, Set[int]] = {}
    for j in levels:
        risers = _region_risers(indptr, indices, core, x, j)
        if risers:
            risers_by_level[j] = risers
            touched.extend((vid, j - 1) for vid in risers)
    for j, risers in risers_by_level.items():
        for vid in risers:
            core[vid] = j
    core[x] = ANCHOR_CORE
    return touched


def capped_cores_ids(
    indptr: Sequence[int],
    indices: Sequence[int],
    anchor_ids: Iterable[int],
    k: int,
) -> List[float]:
    """Anchored core numbers capped at ``k``, by id: ``min(core, k)``, with
    anchors at :data:`ANCHOR_CORE` — the state the compact kernel's
    ``refresh`` builds, without a full peel.

    The bucket cascade of Batagelj and Zaversnik ("An O(m) Algorithm for
    Cores Decomposition of Networks", 2003), stopped at level ``k``: a
    vertex whose remaining degree falls to ``d < k`` goes into bucket
    ``max(d, level)``, buckets drain in level order, and a vertex popped at
    ``level`` has core number ``level``.  Vertices never bucketed keep
    ``k``.  Anchors are never decremented, so they support their neighbours
    throughout.  Only ``min(k, max degree + 1)`` buckets exist, so a huge
    ``k`` allocates and loops over nothing per level.  The work is the
    edges of the vertices below ``k``, not the whole graph.
    :func:`repro.backends.dict_backend.dict_capped_cores` is the
    hashable-vertex twin.
    """
    n = len(indptr) - 1
    core: List[float] = [k] * n
    # ``done`` marks anchors and popped vertices: neither is decremented.
    done = bytearray(n)
    for anchor_id in anchor_ids:
        core[anchor_id] = ANCHOR_CORE
        done[anchor_id] = 1
    degree = [indptr[vid + 1] - indptr[vid] for vid in range(n)]
    buckets: List[List[int]] = [[] for _ in range(min(k, max(degree, default=-1) + 1))]
    for vid in range(n):
        if degree[vid] < k and not done[vid]:
            buckets[degree[vid]].append(vid)
    for level, bucket in enumerate(buckets):
        while bucket:
            vid = bucket.pop()
            if done[vid]:
                continue
            done[vid] = 1
            core[vid] = level
            for position in range(indptr[vid], indptr[vid + 1]):
                neighbour = indices[position]
                if done[neighbour]:
                    continue
                remaining = degree[neighbour] - 1
                degree[neighbour] = remaining
                if remaining < k:
                    buckets[remaining if remaining > level else level].append(neighbour)
    return core


def compact_k_core_ids(
    cgraph: CompactGraph, k: int, anchor_ids: Iterable[int] = ()
) -> Set[int]:
    """Return the (anchored) k-core of a compact snapshot as a set of ids.

    Runs the direct O(n + m) deletion cascade over the flat arrays; anchored
    ids are never removed.  Works on ordered and unordered snapshots alike
    (the result is an order-independent set).
    """
    n = cgraph.num_vertices
    indptr = cgraph.indptr
    indices = cgraph.indices
    degrees = list(cgraph.degrees)
    is_anchor = bytearray(n)
    for anchor_id in anchor_ids:
        is_anchor[anchor_id] = 1
    removed = bytearray(n)
    queue = [vid for vid in range(n) if degrees[vid] < k and not is_anchor[vid]]
    while queue:
        vid = queue.pop()
        if removed[vid]:
            continue
        removed[vid] = 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if removed[neighbour] or is_anchor[neighbour]:
                continue
            degrees[neighbour] -= 1
            if degrees[neighbour] < k:
                queue.append(neighbour)
    return {vid for vid in range(n) if not removed[vid]}


def core_numbers(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Dict[Vertex, int]:
    """Return ``{vertex: core number}`` with plain integer values."""
    decomposition = core_decomposition(graph, backend=backend)
    return {vertex: int(value) for vertex, value in decomposition.core.items()}


def k_core(
    graph: Graph, k: int, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Set[Vertex]:
    """Return the vertex set of the k-core of ``graph``.

    Implemented as a direct peeling cascade, which is faster than a full
    decomposition when only a single ``k`` is needed.  The default
    ``"auto"`` policy is workload-aware (see :mod:`repro.backends.registry`):
    a one-shot cascade cannot amortise building a snapshot, so ``auto``
    resolves to the dict backend at any size.  Consumers that hold a
    reusable snapshot — e.g.
    :class:`~repro.anchored.anchored_core.AnchoredCoreIndex` — run the
    snapshot-native cascade through their backend kernel instead.
    """
    if k < 0:
        raise ParameterError("k must be non-negative")
    return get_backend(backend, graph.num_vertices, workload=WORKLOAD_ONE_SHOT).k_core(
        graph, k
    )


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
