"""The ``numpy`` execution backend: the one snapshot backend.

Every kernel runs over a CSR snapshot (:class:`NumpyGraph`) kept as numpy
arrays for the vectorised passes and as ``rows[vid]`` for the scalar ones.
Its ids are its source's: a bare graph's iteration order, or a
maintainer's id space.  They carry no order.  Only two passes read the
tie-break order, and each keys just the vertices it orders
(:func:`repro.ordering.tie_break_key`): the within-shell cascade
(:func:`_shell_order`) and the anchor tail of a full peel.  Each layer uses
whichever form is faster for its work:

* **Peeling** runs in two phases.  Phase A computes the core numbers with
  vectorised wave peeling (kill every vertex at or below the current level at
  once, decrement the survivors' effective degrees with one ``bincount`` per
  wave).  Phase B reconstructs the *exact* removal order of the reference
  heap peel shell by shell: each shell's starting effective degrees
  (``# neighbours with core >= c``) come from one vectorised pass, and the
  within-shell cascade — the only genuinely sequential part — runs a packed
  single-int heap over the same-shell subgraph only, its ties broken by the
  members' tie-break keys.
* **The whole-shell cascade** (the OLAK baseline's follower cascade) is
  wave-vectorised: support counters come from masked ``bincount`` over
  gathered neighbour ranges and whole removal fronts are processed per
  iteration.  Deletion cascades are confluent, so the surviving set is
  identical to the sequential reference; the visited-vertex
  instrumentation (shell size plus removals) is matched exactly.
* **The anchored core index** never peels: over a maintained graph its
  build reads the maintainer's core numbers capped at ``k``, over a bare
  graph it runs Phase A only up to level ``k``, and either way its CSR then
  holds only the rows of the ids below ``k`` and it orders only the
  ``(k-1)``-shell with Phase B's shell pass.  Anchors given to a refresh
  run Phase A up to level ``k`` again, over those rows.  A commit re-orders
  only the shell components it touched.  The candidate scan gathers that
  shell's neighbours and filters them with one boolean pass.
* **Region-sized work** stays scalar over ``rows[vid]``: the region
  follower cascade behind every Greedy evaluation
  (:func:`repro.cores.decomposition.compact_marginal_followers`), the
  commit risers (:func:`repro.cores.decomposition.commit_anchor_ids`), the
  commit's component walk and the thin-wave drain.  These touch a handful
  of vertices per call, where numpy's per-call overhead would dwarf the
  work.  For the same reason incremental core maintenance has no numpy
  kernel at all (:mod:`repro.cores.maintenance`).

Where the snapshot comes from:

* **A bare graph** (a full peel, and Greedy over a snapshot sequence,
  the paper's per-snapshot baseline) keeps its own iteration order as ids
  (:meth:`NumpyGraph.from_graph`: no sort), and its neighbour sets are
  translated into ids only where the work reads them.  ``decompose``
  needs every row and translates them all.  An index's
  :meth:`~NumpyCoreIndexKernel.refresh` derives ``min(core, k)`` from
  scratch with Phase A stopped at level ``k`` (the capped form of
  Batagelj and Zaversnik's O(m) peel, 2003), which translates the row of
  each id it removes, a wave at a time, and keeps it; the CSR is built
  from exactly those rows, the ids below ``k`` (at k = 4 on perfbench's
  50k-vertex graph, 41,095 of 300,000 neighbour entries).  ``rows`` is a
  :class:`CsrRows`.
* **A maintained graph** is not interned again, and its core numbers are
  not derived again.  The backend that :meth:`NumpyBackend.bound_to`
  returns for a :class:`~repro.cores.maintenance.CoreMaintainer` builds
  the index of ``maintainer.graph`` on :meth:`NumpyGraph.from_maintainer`,
  which takes ``ids``, ``vertices`` and, as ``rows``, the adjacency sets
  (as IncAVT's swap/fill pass does) from the maintainer's id space and
  flattens nothing.  The kernel's :meth:`~NumpyCoreIndexKernel.refresh`
  then reads the maintained cores (``icore``), and flattens into the CSR
  arrays only the rows of the ids whose maintained core is below ``k``.

Either way, anchoring only raises a core, so every row a pass gathers is
a row below ``k``, and the plain k-core is the ids whose capped core is
``k``.  The snapshot is built inside :meth:`NumpyBackend.build_core_index`
and lives as long as its kernel, one solve.

Import of numpy is gated: :func:`repro.backends.get_backend` loads this
module only once ``repro.backends.numpy_available()`` reports true, so the
rest of the library works on a numpy-free interpreter.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain, compress
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

try:  # pragma: no cover - exercised implicitly by the no-numpy CI job
    import numpy as np

    # ``np.unique`` reads ``np.ma``, which numpy 2 imports lazily on first
    # use (about 19 ms).  Importing it with this module keeps that import
    # out of the first solve, whose runtime_seconds would report it.
    import numpy.ma  # noqa: F401
except ImportError:  # pragma: no cover
    np = None

from repro.backends.base import (
    BACKEND_NUMPY,
    CoreIndexKernel,
    ExecutionBackend,
)
from repro.cores.decomposition import (
    ANCHOR_CORE,
    CoreDecomposition,
    commit_anchor_ids,
    compact_marginal_followers,
)
from repro.errors import VertexNotFoundError
from repro.graph.static import Graph, Vertex
from repro.ordering import tie_break_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cores.maintenance import CoreMaintainer, IdStore


class CsrRows:
    """``rows[vid]``, the neighbour ids of ``vid`` in a bare graph's snapshot.

    ``sets[vid]`` is the graph's own neighbour set of the vertex of id
    ``vid`` and ``lookup`` maps a vertex to its id.  A row the CSR holds is
    ``indices[indptr[vid]:indptr[vid + 1]]``, sliced from plain-list copies
    of the CSR arrays (:meth:`NumpyGraph.set_csr` keeps them in step); any
    other row is translated from ``sets[vid]`` on every read.  A bare
    index's CSR holds only the rows below its ``k``, which are the rows the
    scalar cascades read; only a commit of an anchor already at ``k`` reads
    one outside it.  Needs no numpy.
    """

    __slots__ = ("sets", "lookup", "indptr", "indices")

    def __init__(self, sets: List[Set[Vertex]], lookup) -> None:
        self.sets = sets
        self.lookup = lookup
        self.indptr: List[int] = [0] * (len(sets) + 1)
        self.indices: List[int] = []

    def __getitem__(self, vid: int) -> List[int]:
        indptr = self.indptr
        start, stop = indptr[vid], indptr[vid + 1]
        if start == stop:
            return list(map(self.lookup, self.sets[vid]))
        return self.indices[start:stop]


class NumpyGraph:
    """CSR snapshot in its source's id order.

    ``vertices[vid]`` is the vertex of id ``vid`` and ``ids`` maps a vertex
    back; the snapshot holds ids ``0 .. num_vertices - 1``, which carry no
    order.  ``indptr``/``indices`` are the int64 CSR the vectorised passes
    gather from, and ``rows[vid]`` iterates the neighbour ids for the
    scalar ones, in whatever order its source keeps them.  Neither build
    flattens anything: every row of the CSR starts empty, and holds only
    the rows :meth:`flatten` or :meth:`set_csr` put there later.

    ``store`` is ``None`` for a bare graph's snapshot (:meth:`from_graph`),
    whose ``rows`` is a :class:`CsrRows` over the graph's own neighbour
    sets.  :meth:`from_maintainer` keeps the maintainer's
    :class:`~repro.cores.maintenance.IdStore` there and shares its ``ids``,
    ``vertices`` and adjacency sets, which stay live: the snapshot fixes its
    vertex count at build, so an id the maintainer hands out later is not
    in it.
    """

    __slots__ = (
        "vertices",
        "ids",
        "num_vertices",
        "indptr",
        "indices",
        "rows",
        "num_edges",
        "store",
    )

    def __init__(
        self, vertices, ids, rows, num_edges: int, store: Optional[IdStore] = None
    ) -> None:
        self.vertices = vertices
        self.ids = ids
        self.num_vertices = len(vertices)
        self.indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        self.indices = self.indptr[:0]
        self.rows = rows
        self.num_edges = num_edges
        self.store = store

    @classmethod
    def from_graph(cls, graph: Graph) -> "NumpyGraph":
        """The snapshot of ``graph`` in its iteration order: id ``i`` is the
        ``i``-th vertex, and ``rows`` reads the graph's own neighbour sets.

        Translates and flattens nothing; :meth:`flatten` or the index
        kernel's capped peel (:meth:`NumpyCoreIndexKernel.refresh`) fills
        the CSR with the rows its work reads.
        """
        vertices = list(graph.vertices())
        ids = dict(zip(vertices, range(len(vertices))))
        rows = CsrRows(list(graph.neighbor_sets()), ids.__getitem__)
        return cls(vertices, ids, rows, graph.num_edges)

    @classmethod
    def from_maintainer(cls, maintainer: "CoreMaintainer") -> "NumpyGraph":
        """The snapshot of ``maintainer.graph``, in the maintainer's ids.

        Interns and flattens nothing: ids, vertices, ``rows`` and ``store``
        are the maintainer's.  The index kernel flattens the rows it will
        gather once it knows its ``k`` (:meth:`NumpyCoreIndexKernel.refresh`).
        """
        store = maintainer.id_store()
        return cls(store.vertices, store.ids, store.adj, maintainer.graph.num_edges, store)

    def flatten(self, keep) -> None:
        """Make the CSR arrays hold the rows of the ids ``keep`` marks (a
        boolean array by id), read from ``rows`` and, on a bare snapshot,
        translated from the graph's neighbour sets; every other row is
        empty there."""
        rows = self.rows
        bare = self.store is None
        sets = rows.sets if bare else rows
        lengths = np.fromiter(map(len, sets), dtype=np.int64, count=self.num_vertices)
        lengths[~keep] = 0
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        flat = chain.from_iterable(compress(sets, keep.tolist()))
        if bare:
            flat = map(rows.lookup, flat)
        self.set_csr(indptr, np.fromiter(flat, dtype=np.int64, count=int(indptr[-1])))

    def set_csr(self, indptr, indices) -> None:
        """Make ``indptr``/``indices`` the CSR arrays (and, on a bare
        snapshot, the lists its :class:`CsrRows` slices)."""
        self.indptr = indptr
        self.indices = indices
        if self.store is None:
            self.rows.indptr = indptr.tolist()
            self.rows.indices = indices.tolist()

    def gather(self, frontier):
        """The concatenated CSR rows of ``frontier`` (an id array)."""
        return _gather(self.indptr, self.indices, frontier)[0]

    def id_of(self, vertex: Vertex) -> int:
        """The id of ``vertex``; :class:`~repro.errors.VertexNotFoundError`
        if it is not in the snapshot."""
        vid = self.ids.get(vertex, self.num_vertices)
        if vid >= self.num_vertices:
            raise VertexNotFoundError(vertex)
        return vid

    def translate(self, vids: Iterable[int]) -> Set[Vertex]:
        """``vids`` as a set of vertices."""
        vertices = self.vertices
        return {vertices[vid] for vid in vids}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NumpyGraph(n={self.num_vertices}, m={self.num_edges})"


def _gather(indptr, indices, frontier):
    """Concatenated neighbour ids of ``frontier`` plus per-member counts."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        return indices[:0], counts
    offsets = np.cumsum(counts) - counts
    positions = np.repeat(indptr[frontier] - offsets, counts) + np.arange(total)
    return indices[positions], counts


#: Below this frontier size a vectorised wave pays more in fixed numpy-call
#: overhead than the work it does; the cascade switches to a scalar queue.
#: Long-cascade graphs (paths, grids, road networks) peel a handful of
#: vertices per wave, so without the switch the wave loop degrades to
#: O(waves) numpy dispatches.
_SCALAR_DRAIN_CUTOFF = 48


def _drain_scalar(rows, eff, alive, peelable, seeds, core, level):
    """Finish a peel level with a scalar queue once waves go thin.

    Transitively kills every alive, peelable vertex whose effective degree is
    (or drops) <= ``level``, starting from ``seeds``, reading each killed
    vertex's row once from ``rows``; updates ``eff`` and ``alive`` in place,
    assigns ``core[v] = level``, and returns the number of vertices killed.
    Semantically identical to running the vectorised wave loop to
    exhaustion at the same level.
    """
    queue = [int(vid) for vid in seeds]
    killed = 0
    while queue:
        vid = queue.pop()
        if not alive[vid]:
            continue
        alive[vid] = False
        core[vid] = level
        killed += 1
        for neighbour in rows[vid]:
            if alive[neighbour] and peelable[neighbour]:
                slack = eff[neighbour] - 1
                eff[neighbour] = slack
                if slack <= level:
                    queue.append(neighbour)
    return killed


def _shell_order(ngraph: NumpyGraph, core, members, c: int) -> List[int]:
    """Removal order of ``members`` under ``core`` (anchors at infinity).

    ``members`` is an ascending id array of whole connected components of
    the ``c``-shell's subgraph: the whole shell, or only some components.
    At the instant shell ``c`` starts peeling every lower shell is gone and
    nothing else pops until the shell is exhausted, so the starting effective
    degree of a shell vertex is its count of ``core >= c`` neighbours
    (anchors are inf) and only same-shell removals change it: the reference
    heap order restricted to the shell is reproduced with a packed local heap
    over the same-shell subgraph.  Its ties go by
    :func:`~repro.ordering.tie_break_key`, which the pass computes for
    ``members`` only: each member's local index is its key rank among them.
    A removal changes no degree outside its own component, so the heap over
    some components pops them in the whole shell's relative order.  The
    degree counts and the subgraph come from vectorised passes; only the
    key sort and the heap loop are scalar.
    """
    size = int(members.size)
    if not size:
        return []
    vertices = ngraph.vertices
    keys = list(map(tie_break_key, map(vertices.__getitem__, members.tolist())))
    by_key = np.array(sorted(range(size), key=keys.__getitem__), dtype=np.int64)
    local_of = np.empty(size, dtype=np.int64)
    local_of[by_key] = np.arange(size, dtype=np.int64)
    members_by_key = members[by_key]
    nbrs, counts = _gather(ngraph.indptr, ngraph.indices, members_by_key)
    member_row = np.repeat(np.arange(size, dtype=np.int64), counts)
    nbr_core = core[nbrs]
    start_eff = np.bincount(member_row[nbr_core >= c], minlength=size)
    same = nbr_core == c
    sub_counts = np.bincount(member_row[same], minlength=size)
    sub_indptr = np.concatenate(([0], np.cumsum(sub_counts))).tolist()
    # A same-shell neighbour lies in its member's component, so in ``members``.
    sub_indices = local_of[np.searchsorted(members, nbrs[same])].tolist()

    member_list = members_by_key.tolist()
    eff_local = start_eff.tolist()
    heap = (start_eff * size + np.arange(size)).tolist()
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    popped = bytearray(size)
    order: List[int] = []
    while heap:
        entry = heappop(heap)
        degree, local = divmod(entry, size) if size > 1 else (entry, 0)
        if popped[local] or degree != eff_local[local]:
            continue
        popped[local] = 1
        order.append(member_list[local])
        for slot in range(sub_indptr[local], sub_indptr[local + 1]):
            neighbour = sub_indices[slot]
            if not popped[neighbour]:
                slack = eff_local[neighbour] - 1
                eff_local[neighbour] = slack
                heappush(heap, slack * size + neighbour)
    return order


def _wave_cores(rows, gather, eff, core, peelable, limit=None) -> None:
    """Phase A of the peel: write core numbers into ``core`` by wave peeling.

    ``eff`` holds every vertex's degree on entry and is consumed.  Only
    ``peelable`` vertices are removed, and only their rows are read, each
    once, as the peel removes the vertex: a wave's through ``gather`` (the
    concatenated rows of an id array), a thin wave's through ``rows[vid]``.
    The others (anchors, and ids a limited peel cannot reach) keep
    supporting their neighbours.  With a ``limit`` the peel stops before
    level ``limit`` and leaves every vertex it has not reached as it was.
    ``level`` mirrors the heap peel's running-max ``current_core``.  Each
    full-array scan happens once per *level* (levels strictly increase);
    within a level, the next wave's frontier is derived from the
    just-decremented neighbours only, keeping the cascade O(m) instead of
    O(n * waves) on long-cascade graphs (paths, grids).
    """
    n = len(eff)
    alive = np.ones(n, dtype=bool)
    remaining = int(peelable.sum())
    level = 0
    while remaining:
        active = alive & peelable
        current_min = int(eff[active].min())
        if current_min > level:
            level = current_min
        if limit is not None and level >= limit:
            return
        frontier = np.nonzero(active & (eff <= level))[0]
        while frontier.size:
            if frontier.size < _SCALAR_DRAIN_CUTOFF:
                remaining -= _drain_scalar(rows, eff, alive, peelable, frontier, core, level)
                break
            core[frontier] = level
            alive[frontier] = False
            remaining -= int(frontier.size)
            nbrs = gather(frontier)
            if nbrs.size:
                nbrs = nbrs[alive[nbrs] & peelable[nbrs]]
            if nbrs.size:
                eff -= np.bincount(nbrs, minlength=n)
                touched = np.unique(nbrs)
                frontier = touched[eff[touched] <= level]
            else:
                frontier = nbrs


class _RecordedRows:
    """The row source of a bare index's capped peel (:func:`_capped_cores`).

    :func:`_wave_cores` reads the row of each id it removes, once.  This
    source translates that row from the graph's neighbour set (the
    :class:`CsrRows` ``sets``, through its ``lookup``), a whole wave in one
    pass, and keeps it, so :meth:`csr` lays out exactly the rows the peel
    read without translating any of them again.
    """

    def __init__(self, rows: CsrRows, degrees) -> None:
        self._sets = rows.sets
        self._lookup = rows.lookup
        self._degrees = degrees
        # The rows read, in the order read: per wave, then by the drain.
        self._wave_ids: List = []
        self._wave_rows: List = []
        self._drained_ids: List[int] = []
        self._drained_rows: List[int] = []

    def gather(self, frontier):
        rows = chain.from_iterable(map(self._sets.__getitem__, frontier.tolist()))
        nbrs = np.fromiter(
            map(self._lookup, rows),
            dtype=np.int64,
            count=int(self._degrees[frontier].sum()),
        )
        self._wave_ids.append(frontier)
        self._wave_rows.append(nbrs)
        return nbrs

    def __getitem__(self, vid: int) -> List[int]:
        row = list(map(self._lookup, self._sets[vid]))
        self._drained_ids.append(vid)
        self._drained_rows.extend(row)
        return row

    def csr(self):
        """``(indptr, indices)`` holding the rows read, and every other row
        empty."""
        read = np.concatenate(self._wave_ids + [np.array(self._drained_ids, dtype=np.int64)])
        flat = np.concatenate(self._wave_rows + [np.array(self._drained_rows, dtype=np.int64)])
        counts = self._degrees[read]
        starts = np.zeros(read.size + 1, dtype=np.int64)
        np.cumsum(counts, out=starts[1:])
        lengths = np.zeros(self._degrees.size, dtype=np.int64)
        lengths[read] = counts
        indptr = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        # ``flat`` holds the rows in the order read (each id once); lay them
        # out by id.
        return indptr, _gather(starts, flat, np.argsort(read))[0]


def _capped_cores(ngraph: NumpyGraph, k: int):
    """``min(core, k)`` by id of a bare snapshot, derived from scratch.

    The level-limited wave peel, fed the rows of the graph's own neighbour
    sets as it removes their vertices: the ids below ``k``, whose rows the
    snapshot's CSR then holds, and no other row.
    """
    n = ngraph.num_vertices
    degrees = np.fromiter(map(len, ngraph.rows.sets), dtype=np.int64, count=n)
    source = _RecordedRows(ngraph.rows, degrees)
    capped = np.full(n, k, dtype=np.int64)
    _wave_cores(
        source, source.gather, degrees.copy(), capped, np.ones(n, dtype=bool), limit=k
    )
    ngraph.set_csr(*source.csr())
    return capped


def numpy_peel(ngraph: NumpyGraph, anchor_ids: Iterable[int] = ()):
    """Peel a numpy snapshot; return ``(core array, removal order)`` by id.

    Bit-identical to the dict backend's heap peel
    (:func:`repro.backends.dict_backend.dict_anchored_peel`): same core
    numbers, same removal order, anchors mapped to infinity and appended
    last in tie-break key order.
    """
    n = ngraph.num_vertices
    core = np.zeros(n, dtype=np.float64)
    order: List[int] = []
    if n == 0:
        return core, order

    is_anchor = np.zeros(n, dtype=bool)
    anchor_list = list(anchor_ids)
    if anchor_list:
        is_anchor[anchor_list] = True
    peelable = ~is_anchor
    _wave_cores(ngraph.rows, ngraph.gather, np.diff(ngraph.indptr), core, peelable)
    if anchor_list:
        core[is_anchor] = math.inf

    # Phase B: exact removal order, shell by shell (see _shell_order).
    finite = core[peelable] if anchor_list else core
    levels = np.unique(finite).astype(np.int64) if finite.size else finite
    for c in levels.tolist():
        order.extend(_shell_order(ngraph, core, np.nonzero(core == c)[0], c))

    vertices = ngraph.vertices
    order.extend(
        sorted(
            np.nonzero(is_anchor)[0].tolist(),
            key=lambda vid: tie_break_key(vertices[vid]),
        )
    )
    return core, order


def _support_cascade(ngraph: NumpyGraph, k: int, candidate_id: int, core, member_mask):
    """Survival cascade: who of ``member_mask`` keeps >= k supporters.

    Supporters are the candidate, vertices with core >= k, and surviving
    members.  Returns ``(survivor ids, number removed)``; the cascade is
    confluent so wave processing matches the sequential reference set.
    """
    n = ngraph.num_vertices
    members = np.nonzero(member_mask)[0]
    size = int(members.size)
    nbrs, counts = _gather(ngraph.indptr, ngraph.indices, members)
    member_row = np.repeat(np.arange(size, dtype=np.int64), counts)
    supporting = (nbrs == candidate_id) | (core[nbrs] >= k) | member_mask[nbrs]
    support = np.bincount(member_row[supporting], minlength=size)

    position = np.full(n, -1, dtype=np.int64)
    position[members] = np.arange(size)
    removed = np.zeros(size, dtype=bool)
    removed_total = 0
    # One full scan seeds the cascade; later fronts come from the members
    # whose support was just decremented (O(region edges) total).
    front = np.nonzero(support < k)[0]
    while front.size:
        removed[front] = True
        removed_total += int(front.size)
        rnbrs, _ = _gather(ngraph.indptr, ngraph.indices, members[front])
        rnbrs = rnbrs[member_mask[rnbrs]]
        local = position[rnbrs]
        local = local[~removed[local]]
        if local.size:
            support = support - np.bincount(local, minlength=size)
            touched = np.unique(local)
            front = touched[support[touched] < k]
        else:
            front = local
    return members[~removed], removed_total


def numpy_full_shell_followers(
    ngraph: NumpyGraph, k: int, candidate_id: int, core
) -> Tuple[Set[int], int]:
    """Whole-shell follower cascade (OLAK baseline); ``(follower ids,
    visited count)``, the count being the shell size plus the removals, as
    in the dict kernel."""
    if core[candidate_id] >= k:
        return set(), 0
    shell_mask = core == (k - 1)
    shell_mask = shell_mask.copy()
    shell_mask[candidate_id] = False
    shell_size = int(shell_mask.sum())
    if shell_size == 0:
        return set(), 0
    survivors, removed_total = _support_cascade(ngraph, k, candidate_id, core, shell_mask)
    return set(survivors.tolist()), shell_size + removed_total


class NumpyCoreIndexKernel(CoreIndexKernel):
    """Anchored-core-index state over one numpy snapshot.

    The kernel takes the snapshot it runs on (:class:`NumpyGraph`) and keeps
    it for its lifetime.

    :meth:`refresh` first takes the plain cores capped at ``k`` and puts
    the rows of the ids below ``k`` in the CSR.  On a bare snapshot it
    derives them from scratch (:func:`_capped_cores`: Phase A of the peel
    up to level ``k``, whose rows it keeps); on a maintainer's snapshot
    (``NumpyGraph.store``) it copies ``min(icore, k)`` and flattens those
    rows (:meth:`NumpyGraph.flatten`).  From there both run one path: the
    plain k-core is the ids at ``k``; with no anchors the capped cores are
    the state, and with anchors the level-limited peel (:func:`_wave_cores`)
    runs again over the rows below ``k``, where the ids at or above ``k``
    are not peeled, since their anchored cores are at least their plain
    ones.  Then it orders the ``(k-1)``-shell (Phase B's
    :func:`_shell_order`).  :meth:`commit_anchor` runs the capped
    riser cascades of :func:`repro.cores.decomposition.commit_anchor_ids`
    and re-orders only the shell components the commit touched, so a commit
    costs the components it reaches, not the whole shell (at k = 4 on a
    50k-vertex Chung-Lu graph the shell is 3,761 vertices in 3,566
    components).  Ranks come from a counter above every rank handed out
    since the last refresh, so the untouched components keep theirs and the
    ranks are in full-peel order within each shell component, which is the
    capped contract.  Region follower cascades run
    :func:`repro.cores.decomposition.compact_marginal_followers` over the
    snapshot's ``rows`` with the numpy core array as storage.
    """

    def __init__(self, ngraph: NumpyGraph) -> None:
        self._ngraph = ngraph
        n = ngraph.num_vertices
        self._core = np.zeros(n, dtype=np.float64)
        self._rank = np.zeros(n, dtype=np.int64)
        self._next_rank = n
        self._plain_core = np.zeros(0, dtype=np.int64)
        self._core_numbers_cache: Optional[Dict[Vertex, float]] = None

    def refresh(self, anchors: Set[Vertex], k: int) -> None:
        ngraph = self._ngraph
        n = ngraph.num_vertices
        anchor_ids = [ngraph.id_of(anchor) for anchor in anchors]
        # The plain cores capped at k, and a CSR of the rows below k only:
        # anchoring only raises a core, so an id at k or above stays at k,
        # is never peeled and has no row any pass gathers.
        store = ngraph.store
        if store is None:
            plain = _capped_cores(ngraph, k)
        else:
            maintained = np.fromiter(store.icore, dtype=np.int64, count=n)
            ngraph.flatten(maintained < k)
            plain = np.minimum(maintained, k)
        self._plain_core = np.nonzero(plain >= k)[0]
        if anchor_ids:
            core = np.full(n, k, dtype=np.float64)
            core[anchor_ids] = math.inf
            peelable = plain < k
            peelable[anchor_ids] = False
            eff = np.diff(ngraph.indptr)
            _wave_cores(ngraph.rows, ngraph.gather, eff, core, peelable, limit=k)
        else:
            core = plain.astype(np.float64)
        self._core = core
        # Every vertex below the shell ranks 0, and the shell from n up.
        self._rank = np.zeros(n, dtype=np.int64)
        self._next_rank = n
        self._rank_components(np.nonzero(core == k - 1)[0], k - 1)
        self._core_numbers_cache = None

    def commit_anchor(self, vertex: Vertex, anchors: Set[Vertex], k: int):
        # The riser cascades are scalar work on a small region: the shared
        # id cascade runs over the snapshot's rows with the numpy core array
        # as storage.
        ngraph = self._ngraph
        touched = commit_anchor_ids(ngraph.rows, self._core, ngraph.id_of(vertex), k)
        self._rank_components(self._touched_components(touched, k - 1), k - 1)
        self._core_numbers_cache = None
        vertices = ngraph.vertices
        return frozenset(vertices[vid] for vid, _ in touched)

    def _touched_components(self, touched, c: int):
        """The ``c``-shell components that contain or neighbour a touched
        id, as an ascending id array.

        Any other component has the same members as before the commit, and
        each member the same neighbour cores, so its order stands.
        """
        rows = self._ngraph.rows
        core = self._core
        stack = [vid for vid, _ in touched]
        for vid, _ in touched:
            stack.extend(rows[vid])
        members: Set[int] = set()
        while stack:
            vid = stack.pop()
            if vid not in members and core[vid] == c:
                members.add(vid)
                stack.extend(rows[vid])
        return np.array(sorted(members), dtype=np.int64)

    def _rank_components(self, members, c: int) -> None:
        """Rank ``members`` (whole ``c``-shell components, ascending ids) in
        full-peel order, above every rank handed out so far."""
        if not members.size:
            return
        order = _shell_order(self._ngraph, self._core, members, c)
        start = self._next_rank
        self._next_rank = start + len(order)
        self._rank[order] = np.arange(start, self._next_rank)

    def removal_ranks(self) -> Mapping[Vertex, int]:
        vertices = self._ngraph.vertices
        rank = self._rank
        return {vertices[vid]: int(rank[vid]) for vid in range(self._ngraph.num_vertices)}

    @staticmethod
    def _as_python(value) -> float:
        return math.inf if math.isinf(value) else int(value)

    def core_of(self, vertex: Vertex) -> float:
        return self._as_python(self._core[self._ngraph.id_of(vertex)])

    def core_numbers(self) -> Mapping[Vertex, float]:
        if self._core_numbers_cache is None:
            vertices = self._ngraph.vertices
            self._core_numbers_cache = {
                vertices[vid]: self._as_python(self._core[vid])
                for vid in range(self._ngraph.num_vertices)
            }
        return self._core_numbers_cache

    def _translate(self, ids) -> Set[Vertex]:
        return self._ngraph.translate(ids.tolist())

    def vertices_with_core_at_least(self, k: int) -> Set[Vertex]:
        return self._translate(np.nonzero(self._core >= k)[0])

    def count_core_at_least(self, k: int) -> int:
        return int((self._core >= k).sum())

    def shell_vertices(self, value: int) -> Set[Vertex]:
        return self._translate(np.nonzero(self._core == value)[0])

    def plain_k_core(self, k: int) -> Set[Vertex]:
        return self._translate(self._plain_core)

    def candidate_anchors(self, k: int, order_pruning: bool) -> Set[Vertex]:
        # Walk the (k-1)-shell: a candidate is a neighbour of a shell member
        # below k (anchors carry core infinity, which excludes them), ranked
        # before that member under pruning.
        ngraph = self._ngraph
        core = self._core
        shell = np.nonzero(core == k - 1)[0]
        nbrs, counts = _gather(ngraph.indptr, ngraph.indices, shell)
        mask = core[nbrs] < k
        if order_pruning:
            rank = self._rank
            mask &= rank[nbrs] < np.repeat(rank[shell], counts)
        return self._translate(np.unique(nbrs[mask]))

    def non_core_vertices(self, k: int) -> Set[Vertex]:
        return self._translate(np.nonzero(self._core < k)[0])

    def marginal_followers(
        self, k: int, candidate: Vertex, full_shell: bool
    ) -> Tuple[Set[Vertex], int]:
        ngraph = self._ngraph
        candidate_id = ngraph.id_of(candidate)
        if full_shell:
            gained_ids, visited = numpy_full_shell_followers(
                ngraph, k, candidate_id, self._core
            )
        else:
            gained_ids, visited = compact_marginal_followers(
                ngraph.rows, k, candidate_id, self._core
            )
        return ngraph.translate(gained_ids), visited

    def marginal_followers_with_region(self, k: int, candidate: Vertex):
        ngraph = self._ngraph
        region_ids: Set[int] = set()
        gained_ids, visited = compact_marginal_followers(
            ngraph.rows,
            k,
            ngraph.id_of(candidate),
            self._core,
            region_out=region_ids,
        )
        translate = ngraph.translate
        return translate(gained_ids), visited, frozenset(translate(region_ids))


class NumpyBackend(ExecutionBackend):
    """Vectorised numpy kernels over :class:`NumpyGraph` snapshots.

    ``maintainer`` binds the backend to a
    :class:`~repro.cores.maintenance.CoreMaintainer` (:meth:`bound_to`): an
    index built over ``maintainer.graph`` then takes its snapshot from the
    maintainer's id space.  The shared instance is unbound.
    """

    name = BACKEND_NUMPY

    def __init__(self, maintainer: Optional["CoreMaintainer"] = None) -> None:
        if np is None:  # pragma: no cover - get_backend checks first
            raise ImportError(
                "the numpy execution backend requires numpy; "
                "install it or pick backend='dict'"
            )
        self._maintainer = maintainer

    def bound_to(self, maintainer: "CoreMaintainer") -> "NumpyBackend":
        return NumpyBackend(maintainer)

    def decompose(self, graph: Graph, anchors: FrozenSet[Vertex] = frozenset()):
        anchor_set = frozenset(anchors)
        # The full peel reads every row.
        ngraph = NumpyGraph.from_graph(graph)
        ngraph.flatten(np.ones(ngraph.num_vertices, dtype=bool))
        anchor_ids = [ngraph.id_of(anchor) for anchor in anchor_set]
        core_arr, order_ids = numpy_peel(ngraph, anchor_ids)
        vertices = ngraph.vertices
        core = {
            vertices[vid]: (ANCHOR_CORE if math.isinf(core_arr[vid]) else int(core_arr[vid]))
            for vid in range(len(vertices))
        }
        order = tuple(vertices[vid] for vid in order_ids)
        return CoreDecomposition(core=core, order=order, anchors=anchor_set)

    def build_core_index(self, graph: Graph) -> NumpyCoreIndexKernel:
        # The snapshot is built here, inside the call, whichever way: it
        # lives only as long as the kernel, and this is the call a traced
        # run times as the build.
        maintainer = self._maintainer
        if maintainer is not None and graph is maintainer.graph:
            return NumpyCoreIndexKernel(NumpyGraph.from_maintainer(maintainer))
        return NumpyCoreIndexKernel(NumpyGraph.from_graph(graph))
