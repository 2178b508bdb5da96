"""Incremental core maintenance for evolving graphs (Section 5.2).

When the graph evolves from ``G_{t-1}`` to ``G_t`` by inserting the edge set
``E+`` and deleting ``E-``, core numbers change only locally: an insertion can
raise the core number of vertices in the *subcore* of the edge's lower
endpoint by at most one (Lemmas 1–2), and a deletion can lower the core number
of vertices whose max core degree drops below their core number (Lemmas 3–4).

:class:`CoreMaintainer` owns a graph and its core numbers and updates them
edge by edge using the classic traversal maintenance algorithms.  Batch
updates via :meth:`apply_delta` additionally report the paper's ``VI`` and
``VR`` sets — the insertion-affected and deletion-affected vertices whose core
number is ``k - 1`` afterwards — which is exactly the candidate pool the
incremental tracker (IncAVT, Algorithm 6) probes.

The maintained graph is stored once, as an
:class:`~repro.graph.static.IdGraph`: the caller's graph interned into dense
ids, one set of neighbour ids per id, with O(1) upkeep per edge operation.
It answers as any :class:`~repro.graph.static.Graph` (its neighbour sets are
live views over the id rows), and the traversals run over its rows in one
integer-id kernel, whatever execution backend the solvers use.  The kernel
keeps the core numbers in two stores that every core change updates
together:

- a flat list indexed by id, which the traversals read, and which
  :meth:`CoreMaintainer.core` and :meth:`CoreMaintainer.core_numbers` read
  through the graph's ids;
- the level sets ``levels[r] = {id : core(id) >= r}``, one per ``r`` from 0
  to the top core.  A rise ``c -> c+1`` adds the id to ``levels[c+1]`` and a
  drop ``c -> c-1`` discards it from ``levels[c]``, both O(1).

:meth:`CoreMaintainer.id_store` hands the graph's ids and rows and both
stores out read-only, for passes that run on ids themselves:
IncAVT's swap/fill pass reads its region, pool and core numbers there.  The
numpy backend's index of an exact solve over the maintained graph takes its
ids, vertices and adjacency rows from it instead of interning the graph
again, and its core numbers from it instead of peeling: its capped cores are
``icore`` capped at its ``k``, its plain k-core is ``levels[k]``, and it
flattens only the rows of the ids below ``k``.  The ids carry no order; a
pass that needs the tie-break order keys the vertices it orders.

The level sets bound a deletion's work by the supporters it counts, not by
whole neighbourhoods (compare Li, Yu and Mao, "Efficient Core Maintenance in
Large Dynamic Graphs", TKDE 2014).  A removal at root core ``r`` takes a vertex's
supporters as ``adj & levels[r]``, counts them, and walks that set if the
vertex drops.  CPython intersects two sets by walking the smaller one, in C,
so a hub row of thousands of neighbours costs only the few of them at core
``>= r``.  They also make :meth:`CoreMaintainer.k_core_vertices` an O(1)
live view of ``levels[k]``, so no read of the k-core scans n.  The kernel is
pure Python: vectorisation cannot beat int-set traversals on per-edge
subcores, and maintenance runs the same with or without numpy.

:meth:`CoreMaintainer.apply_delta` runs on ids.  It looks each endpoint's id
up once and writes the edge through the graph's id mutators, and the kernel
records the touched ids and each id's net core change into the delta's own
set and maps.  A core number moves only when a traversal visits its id, so the
pre-update cores are the final ones minus the net change.  Most edges settle
at their lower endpoint alone: an insertion raises it when none of its
neighbours shares its core, and a removal leaves it when it keeps its
support, or lowers it alone when none of its supporters shares its core.
Only the rest walk a subcore or run a cascade.  The returned
:class:`DeltaEffect` keeps every result by id and translates a vertex-space
field only when it is first read: IncAVT's swap/fill pass and the engine's
flush read the ids and translate nothing.

Set-up interns the caller's graph once, which is also the maintainer's copy
of it (later updates never touch the caller's graph), and takes the core
numbers from the bucket cascade of Batagelj and Zaversnik ("An O(m)
Algorithm for Cores Decomposition of Networks", 2003) over the rows.  It
builds no removal order.  Trusted core numbers (a checkpoint restore) skip
the cascade.  Either way the level sets are then built once, top down, in
O(n + sum of cores) set inserts.

The maintained core numbers are the single source of truth for the incremental
tracker and for the exact solves over the maintained graph (the engine's
cold and exact queries, IncAVT's first snapshot and its restarts); a
:meth:`CoreMaintainer.validate` hook recomputes them from scratch
with a full peel and raises if the id list or any level set ever diverges,
and the property-based tests exercise that hook on random edit sequences.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.cores.decomposition import core_numbers as recompute_core_numbers
from repro.errors import (
    InvariantViolationError,
    SelfLoopError,
    VertexNotFoundError,
    require_hashable,
    require_int,
)
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Edge, Graph, IdGraph, IdSetView, Vertex


#: The fields :class:`DeltaEffect` equality compares, in vertex space.
_EFFECT_FIELDS = (
    "increased",
    "decreased",
    "insertion_affected",
    "deletion_affected",
    "insertion_touched",
    "deletion_touched",
    "pre_update_core",
    "visited",
)


@dataclass(eq=False, repr=False)
class DeltaEffect:
    """The effect of applying one snapshot delta to a maintained core index.

    :meth:`CoreMaintainer.apply_delta` computes every result in the
    maintained graph's id space, in full, before it returns.  Each
    vertex-space attribute below has an id-space twin named with the suffix
    ``_ids`` (``pre_update_core_ids`` maps ids to cores), and
    ``affected_ids`` and ``touched_ids`` are their unions; consumers that
    work on ids read those.  A vertex-space attribute translates its twin
    through ``id_vertices`` on its first read and keeps the result.  Ids are
    permanent and ``id_vertices`` only grows, so a translation made after
    later updates still reports this delta: only the translation waits for
    a read, never a read of the core numbers.  Effects are built by
    :meth:`CoreMaintainer.apply_delta`: the constructor takes
    ``id_vertices``, the ``_ids`` fields and ``visited``, and the
    vertex-space attributes are translations, not parameters.
    ``DeltaEffect()`` is the empty effect, and two effects are equal when
    their seven vertex-space attributes and ``visited`` are.

    Attributes
    ----------
    increased:
        Vertices whose core number rose while applying the delta.
    decreased:
        Vertices whose core number fell while applying the delta.  A vertex
        that rose and then fell within one delta is in both.
    insertion_affected:
        The paper's ``VI``: vertices touched by the insertion phase whose core
        number is ``k - 1`` in the updated graph.
    deletion_affected:
        The paper's ``VR``: vertices touched by the deletion phase whose core
        number is ``k - 1`` in the updated graph.
    insertion_touched:
        Every vertex the insertion phase examined (endpoints of effective
        insertions, risen vertices and traversal-visited vertices) — recorded
        independently of ``k`` so long-lived consumers such as the streaming
        engine can invalidate derived state without fixing ``k`` up front.
    deletion_touched:
        Every vertex the deletion phase examined, symmetric to
        ``insertion_touched``.
    pre_update_core:
        Core number each touched vertex had *before* the delta (vertices the
        delta created are recorded at their creation-time core 0, which
        correctly marks them as new at every ``k``).  Lets consumers reason
        about old-vs-new cores without copying the full core index.
    visited:
        Number of vertices visited by the maintenance traversals (used by the
        instrumentation figures).
    """

    #: The maintained graph's ``id_vertices``: the vertex of each id.
    id_vertices: Sequence[Vertex] = ()
    increased_ids: AbstractSet[int] = frozenset()
    decreased_ids: AbstractSet[int] = frozenset()
    insertion_affected_ids: AbstractSet[int] = frozenset()
    deletion_affected_ids: AbstractSet[int] = frozenset()
    insertion_touched_ids: AbstractSet[int] = frozenset()
    deletion_touched_ids: AbstractSet[int] = frozenset()
    pre_update_core_ids: Mapping[int, int] = field(default_factory=dict)
    visited: int = 0

    def _vertices(self, id_set: AbstractSet[int]) -> Set[Vertex]:
        return set(map(self.id_vertices.__getitem__, id_set))

    @cached_property
    def increased(self) -> Set[Vertex]:
        return self._vertices(self.increased_ids)

    @cached_property
    def decreased(self) -> Set[Vertex]:
        return self._vertices(self.decreased_ids)

    @cached_property
    def insertion_affected(self) -> Set[Vertex]:
        return self._vertices(self.insertion_affected_ids)

    @cached_property
    def deletion_affected(self) -> Set[Vertex]:
        return self._vertices(self.deletion_affected_ids)

    @cached_property
    def insertion_touched(self) -> Set[Vertex]:
        return self._vertices(self.insertion_touched_ids)

    @cached_property
    def deletion_touched(self) -> Set[Vertex]:
        return self._vertices(self.deletion_touched_ids)

    @cached_property
    def pre_update_core(self) -> Dict[Vertex, int]:
        vertex_of = self.id_vertices.__getitem__
        return {vertex_of(vid): value for vid, value in self.pre_update_core_ids.items()}

    @property
    def affected_ids(self) -> Set[int]:
        """Union of the insertion- and deletion-affected ids."""
        return self.insertion_affected_ids | self.deletion_affected_ids

    @property
    def touched_ids(self) -> Set[int]:
        """Every id examined by either maintenance phase (k-independent)."""
        return self.insertion_touched_ids | self.deletion_touched_ids

    @property
    def affected(self) -> Set[Vertex]:
        """Union of the insertion- and deletion-affected vertex sets."""
        return self.insertion_affected | self.deletion_affected

    @property
    def touched(self) -> Set[Vertex]:
        """Every vertex examined by either maintenance phase (k-independent)."""
        return self.insertion_touched | self.deletion_touched

    @property
    def changed(self) -> Set[Vertex]:
        """Vertices whose core number actually moved (rose or fell)."""
        return self.increased | self.decreased

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaEffect):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in _EFFECT_FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in _EFFECT_FIELDS)
        return f"DeltaEffect({fields})"


def bucket_cores(adj: List[Set[int]]) -> List[int]:
    """Core numbers of an id adjacency, by the bucket cascade.

    Batagelj and Zaversnik's O(m) cascade with lazy buckets: a vertex whose
    remaining degree falls to ``d`` goes into bucket ``d`` unless ``d`` is
    already below the level being drained, where it still has a pending
    entry in the current bucket.  Buckets drain in level order, and a
    vertex popped at ``level`` has core number ``level``.  A popped vertex's
    remaining degree is set negative and only falls from there, so its
    later entries are skipped and it is never bucketed again.  Only core
    numbers come out: no removal order, so no tie-break.
    """
    degree = [len(row) for row in adj]
    core = [0] * len(degree)
    buckets: List[List[int]] = [[] for _ in range(max(degree, default=-1) + 1)]
    for vid, value in enumerate(degree):
        buckets[value].append(vid)
    for level, bucket in enumerate(buckets):
        while bucket:
            vid = bucket.pop()
            if degree[vid] < 0:
                continue
            degree[vid] = -1
            core[vid] = level
            for neighbour in adj[vid]:
                remaining = degree[neighbour] - 1
                degree[neighbour] = remaining
                if remaining >= level:
                    buckets[remaining].append(neighbour)
    return core


def _core_levels(icore: Sequence[int]) -> List[Set[int]]:
    """``levels[r] = {id : icore[id] >= r}`` for every ``r`` up to the top core.

    Built top down: each level is the one above it plus its own shell, so
    the work is O(n + sum of cores) set inserts, done in C.
    """
    shells: List[List[int]] = [[] for _ in range(max(icore, default=0) + 1)]
    for vid, value in enumerate(icore):
        shells[value].append(vid)
    levels: List[Set[int]] = []
    above: Set[int] = set()
    for shell in reversed(shells):
        above = above.union(shell)
        levels.append(above)
    levels.reverse()
    return levels


class IdStore(NamedTuple):
    """The maintained graph's id space and the kernel's core stores, as
    :meth:`CoreMaintainer.id_store` hands them out.

    Every field is the maintainer's own object, not a copy, so later updates
    show through; readers must not mutate any of them.

    ``ids`` maps a vertex to its id and ``vertices`` maps an id back.
    ``adj[id]`` is the set of the id's neighbour ids (the graph's
    :attr:`~repro.graph.static.IdGraph.rows`) and ``icore[id]`` its core
    number.  ``levels[r]`` is the set of ids of core ``>= r`` for every
    ``r`` up to the top core; a level past the end of the list is empty.
    """

    ids: Mapping[Vertex, int]
    vertices: Sequence[Vertex]
    adj: Sequence[Set[int]]
    icore: Sequence[int]
    levels: Sequence[Set[int]]


class _IdKernel:
    """The maintained core numbers and the traversals over a graph's id rows.

    ``icore`` (core number by id) and ``levels`` (``levels[r]`` holds the
    ids of core ``>= r``, for every ``r`` up to the top core) always agree:
    the traversals and :meth:`add_vertex` write both.  ``adj`` and
    ``vertices`` are the graph's ``rows`` and ``id_vertices``.  The
    maintainer writes an edge to the graph first and then calls
    :meth:`insert` / :meth:`remove` with the endpoint ids, the caller's
    ``touched`` set and its net-change map ``net``.  Each adds both
    endpoints and every id its traversal examines to ``touched``, adds the
    change of every core number it moves to ``net`` (+1 per rise, -1 per
    drop) and returns how many ids it examined.  When the endpoints sit at
    different cores, the lower one is the only root, and one pass settles
    it with no walk, queue or map: an insertion's over its row, unless a
    neighbour shares its core, and a removal's over its supporters, unless
    it drops and one of them shares its core.  Only then, or when the
    endpoints share a core, do the subcore walk and the cascade run.
    """

    __slots__ = ("icore", "levels", "vertices", "adj")

    def __init__(self, graph: IdGraph, core: Optional[Dict[Vertex, int]] = None) -> None:
        self.vertices = graph.id_vertices
        self.adj = graph.rows
        self.levels: List[Set[int]] = []
        self.build(core)

    def build(self, core: Optional[Dict[Vertex, int]] = None) -> None:
        """(Re)compute every store from the graph's rows; ``core`` supplies
        trusted cores.  ``levels`` keeps its list, so views of it stay live."""
        if core is None:
            self.icore = bucket_cores(self.adj)
        else:
            self.icore = [core.get(vertex, 0) for vertex in self.vertices]
        self.levels[:] = _core_levels(self.icore)

    def add_vertex(self, vid: int) -> None:
        """Register the brand-new vertex of id ``vid`` at core number 0."""
        self.icore.append(0)
        self.levels[0].add(vid)

    # -- insertion traversal (Lemmas 1-2) ----------------------------------
    def insert(self, u_id: int, v_id: int, touched: Set[int], net: Dict[int, int]) -> int:
        """Run the insertion traversal of a just-added edge."""
        icore = self.icore
        touched.add(u_id)
        touched.add(v_id)
        u_core, v_core = icore[u_id], icore[v_id]
        if u_core == v_core:
            root_core = u_core
            risen, visits = self._subcore_walk((u_id, v_id), root_core, touched)
        else:
            root, root_core = (u_id, u_core) if u_core < v_core else (v_id, v_core)
            # The lower endpoint is the only root.  Unless a neighbour shares
            # its core, its subcore is itself, and it rises: root_core
            # neighbours above it held it at its core before the edge, and
            # the edge adds one.
            risen, visits = (root,), 1
            for neighbour in self.adj[root]:
                if icore[neighbour] == root_core:
                    risen, visits = self._subcore_walk((root,), root_core, touched)
                    break
        if risen:
            value = root_core + 1
            levels = self.levels
            if value == len(levels):
                levels.append(set())
            levels[value].update(risen)
            for w in risen:
                icore[w] = value
                net[w] = net.get(w, 0) + 1
        return visits

    def _subcore_walk(
        self, roots: Tuple[int, ...], root_core: int, touched: Set[int]
    ) -> Tuple[Set[int], int]:
        """The ids of the roots' subcore that rise, and the subcore's size;
        adds the subcore to ``touched``."""
        adj = self.adj
        icore = self.icore
        # Subcore: shell-root_core vertices reachable from the roots through
        # shell-root_core vertices.  Only these can rise, and by at most 1.
        # A candidate's support is its neighbours among higher-core vertices
        # and candidates.  Every shell-root_core neighbour of a candidate is
        # a candidate, so that is its number of neighbours of core >=
        # root_core, counted while the walk scans its row.
        candidates: Set[int] = set(roots)
        stack = list(roots)
        support: Dict[int, int] = {}
        while stack:
            current = stack.pop()
            count = 0
            for neighbour in adj[current]:
                value = icore[neighbour]
                if value >= root_core:
                    count += 1
                    if value == root_core and neighbour not in candidates:
                        candidates.add(neighbour)
                        stack.append(neighbour)
            support[current] = count

        # Eviction: a candidate can rise only if more than root_core of its
        # supporters remain once evicted candidates stop counting.
        evict_queue = [w for w, count in support.items() if count <= root_core]
        evicted: Set[int] = set()
        while evict_queue:
            w = evict_queue.pop()
            if w in evicted:
                continue
            evicted.add(w)
            for neighbour in adj[w]:
                if neighbour in candidates and neighbour not in evicted:
                    support[neighbour] -= 1
                    if support[neighbour] <= root_core:
                        evict_queue.append(neighbour)
        touched |= candidates
        return candidates - evicted, len(candidates)

    # -- deletion cascade (Lemmas 3-4) --------------------------------------
    def remove(self, u_id: int, v_id: int, touched: Set[int], net: Dict[int, int]) -> int:
        """Run the deletion cascade of a just-removed edge."""
        icore = self.icore
        touched.add(u_id)
        touched.add(v_id)
        adj = self.adj
        u_core, v_core = icore[u_id], icore[v_id]
        if u_core == v_core:
            level = self.levels[u_core]
            roots = {u_id: adj[u_id] & level, v_id: adj[v_id] & level}
            return self._cascade(roots, u_core, touched, net)
        root, root_core = (u_id, u_core) if u_core < v_core else (v_id, v_core)
        # The lower endpoint is the only root.  It keeps its core while
        # root_core of its neighbours sit at root_core or above, and when it
        # drops, it drops alone unless one of them sits at root_core exactly.
        level = self.levels[root_core]
        found = adj[root] & level
        if len(found) >= root_core:
            return 1
        for neighbour in found:
            if icore[neighbour] == root_core:
                return self._cascade({root: found}, root_core, touched, net)
        icore[root] = root_core - 1
        level.discard(root)
        net[root] = net.get(root, 0) - 1
        return 1

    def _cascade(
        self,
        supporters: Dict[int, Set[int]],
        root_core: int,
        touched: Set[int],
        net: Dict[int, int],
    ) -> int:
        """The deletion cascade at ``root_core`` from the roots that
        ``supporters`` maps to their supporters; records and returns as
        :meth:`remove` does.  The cascade adds every vertex it visits to
        ``supporters``."""
        adj = self.adj
        icore = self.icore
        # ``level`` holds exactly the ids of core >= root_core, so a vertex's
        # supporters (its max core degree) are its row intersected with it,
        # and only they can be visited.  A vertex drops when its support
        # falls below its core.  The cascade only lowers, so a supporter set
        # kept from a vertex's first visit holds every current supporter;
        # its other members were lowered, and the walk skips them.
        level = self.levels[root_core]
        visited: Set[int] = set(supporters)
        support: Dict[int, int] = {}
        dropped: Set[int] = set()
        queue: List[int] = []
        for w, found in supporters.items():
            support[w] = len(found)
            if support[w] < root_core:
                dropped.add(w)
                queue.append(w)

        lowered = root_core - 1
        while queue:
            w = queue.pop()
            # Visit neighbours before lowering core(w): w is still in
            # ``level``, so their lazily computed support still counts w, and
            # the explicit decrement below then accounts for w exactly once.
            for x in supporters[w]:
                if icore[x] != root_core or x in dropped:
                    continue
                visited.add(x)
                if x not in support:
                    supporters[x] = found = adj[x] & level
                    support[x] = len(found)
                # ``w`` no longer counts towards x's support.
                support[x] -= 1
                if support[x] < root_core:
                    dropped.add(x)
                    queue.append(x)
            icore[w] = lowered
            level.discard(w)
            net[w] = net.get(w, 0) - 1
        touched |= visited
        return len(visited)


class CoreMaintainer:
    """Maintains core numbers of a graph under edge insertions and deletions."""

    def __init__(self, graph: Graph, core: Optional[Dict[Vertex, int]] = None) -> None:
        """Intern ``graph``; compute core numbers unless ``core`` supplies them.

        The maintained graph (:attr:`graph`) is ``graph`` interned into ids,
        with its vertices in ``graph``'s order
        (:class:`~repro.graph.static.IdGraph`).  It is the one copy
        of the adjacency that the updates write and the traversals read, and
        ``graph`` itself is never touched again.

        ``core`` exists for checkpoint restore: a caller that persisted the
        maintained core numbers alongside the graph can resume without paying
        a fresh decomposition.  The values are trusted; :meth:`validate`
        cross-checks them on demand.  Everything that reads the maintained
        cores reads them as given: the update traversals, IncAVT's swap/fill
        pass and, on numpy, the index of every exact solve over
        :attr:`graph`, which takes its capped cores and its plain k-core
        from them.
        """
        self._graph = IdGraph(graph)
        self._kernel = _IdKernel(self._graph, core)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> IdGraph:
        """The maintained graph (mutated in place by the update methods).

        Its rows are the kernel's adjacency.  A caller that mutates it
        directly must call :meth:`refresh_from_graph` before the next read
        of the cores.
        """
        return self._graph

    def core_numbers(self) -> Dict[Vertex, int]:
        """Return a copy of the maintained core numbers."""
        return dict(zip(self._graph.id_vertices, self._kernel.icore))

    def core(self, vertex: Vertex) -> int:
        """Return the maintained core number of ``vertex``."""
        try:
            return self._kernel.icore[self._graph.ids[vertex]]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def id_store(self) -> IdStore:
        """The graph's ids and rows and the kernel's core list and level sets,
        read-only.

        O(1): the fields are the live stores themselves (see
        :class:`IdStore`), so a pass that works on ids reads them without a
        copy or a translation, and copies only what it will write.  Do not
        mutate them.  They stay live across edge updates; take a new store
        after :meth:`refresh_from_graph`, which replaces the core list.  A
        numpy index over :attr:`graph` reads ``ids``, ``vertices`` and
        ``adj`` live for the one solve it serves
        (:meth:`repro.backends.numpy_backend.NumpyGraph.from_maintainer`),
        with its vertex count fixed when it is built, and copies ``icore``
        (capped at its ``k``) and ``levels[k]`` when it is refreshed.
        """
        graph = self._graph
        kernel = self._kernel
        return IdStore(graph.ids, graph.id_vertices, graph.rows, kernel.icore, kernel.levels)

    def k_core_vertices(self, k: int) -> AbstractSet[Vertex]:
        """Return ``{v : core(v) >= k}`` as a read-only live view, in O(1).

        The view reads the maintained level set itself: ``in`` and ``len``
        are O(1) and iteration translates ids.  It is live: every later
        update of this maintainer shows through it (and iterating it while
        an update runs fails like iterating a changing set), so take
        ``set(view)`` to keep a snapshot.
        """
        require_int("k", k, 0)
        graph = self._graph
        return IdSetView(graph.ids, graph.id_vertices, self._kernel.levels, k)

    def shell_vertices(self, k: int) -> Set[Vertex]:
        """Return ``{v : core(v) == k}``, read from the level sets (no scan of n)."""
        require_int("k", k, 0)
        levels = self._kernel.levels
        if k >= len(levels):
            return set()
        shell = levels[k] - levels[k + 1] if k + 1 < len(levels) else levels[k]
        return set(map(self._graph.id_vertices.__getitem__, shell))

    # ------------------------------------------------------------------
    # Single-edge updates
    # ------------------------------------------------------------------
    def _intern(self, vertex: Vertex) -> int:
        """The id of ``vertex``, adding it to the graph and the kernel if new."""
        vid = self._graph.ids.get(vertex)
        if vid is None:
            vid = self._graph.add_vertex(vertex)
            self._kernel.add_vertex(vid)
        return vid

    def insert_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Insert edge ``(u, v)`` and return the vertices whose core increased.

        Inserting an edge that already exists is a no-op returning the empty
        set.  New endpoints are added with core number updated from scratch
        locally (a fresh vertex starts at core 0 before the edge is counted).
        A self-loop raises :class:`~repro.errors.SelfLoopError`, and an
        unhashable endpoint :class:`~repro.errors.ParameterError`, before
        anything changes.
        """
        require_hashable("u", u)
        require_hashable("v", v)
        if u == v:
            raise SelfLoopError(u)
        u_id, v_id = self._intern(u), self._intern(v)
        if not self._graph.add_edge_ids(u_id, v_id):
            return set()
        risen: Dict[int, int] = {}
        self._kernel.insert(u_id, v_id, set(), risen)
        return set(map(self._graph.id_vertices.__getitem__, risen))

    def remove_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Remove edge ``(u, v)`` and return the vertices whose core decreased.

        Removing an absent edge is a no-op returning the empty set.  An
        unhashable endpoint raises :class:`~repro.errors.ParameterError`.
        """
        require_hashable("u", u)
        require_hashable("v", v)
        ids = self._graph.ids
        u_id, v_id = ids.get(u), ids.get(v)
        if u_id is None or v_id is None or not self._graph.remove_edge_ids(u_id, v_id):
            return set()
        dropped: Dict[int, int] = {}
        self._kernel.remove(u_id, v_id, set(), dropped)
        return set(map(self._graph.id_vertices.__getitem__, dropped))

    # ------------------------------------------------------------------
    # Batch updates
    # ------------------------------------------------------------------
    def insert_edges(self, edges: Iterable[Edge]) -> Set[Vertex]:
        """Insert every edge of ``edges`` in one pass.

        Returns the union of all vertices whose core number rose across the
        whole batch (computed while inserting — no second scan).
        """
        increased: Set[Vertex] = set()
        for u, v in edges:
            increased.update(self.insert_edge(u, v))
        return increased

    def remove_edges(self, edges: Iterable[Edge]) -> Set[Vertex]:
        """Remove every edge of ``edges`` in one pass.

        Returns the union of all vertices whose core number fell across the
        whole batch (computed while removing — no second scan).
        """
        decreased: Set[Vertex] = set()
        for u, v in edges:
            decreased.update(self.remove_edge(u, v))
        return decreased

    def apply_delta(self, delta: EdgeDelta, k: Optional[int] = None) -> DeltaEffect:
        """Apply one snapshot delta (insertions first, then deletions).

        When ``k`` is given (an integer >= 1), the returned
        :class:`DeltaEffect` also carries the ``VI`` / ``VR`` candidate pools
        for that ``k`` (vertices touched by the respective phase whose
        updated core number is ``k - 1``).  The k-independent ``touched``
        sets are always recorded, counting only *effective* operations —
        inserting a present edge or removing an absent one leaves no trace,
        so consumers can treat an empty ``touched`` as "the graph did not
        change".  An inserted self-loop raises
        :class:`~repro.errors.SelfLoopError` before anything changes.

        The delta runs on ids: each endpoint is looked up once, the graph's
        id mutators write the edge, and the kernel records the touched ids
        and each id's net core change (see :class:`DeltaEffect`).
        """
        if k is not None:
            require_int("k", k, 1)
        if delta.is_empty():
            return DeltaEffect()
        for u, v in delta.inserted:
            if u == v:
                raise SelfLoopError(u)

        graph = self._graph
        kernel = self._kernel
        ids = graph.ids
        intern = self._intern
        visits = 0
        insertion_touched: Set[int] = set()
        deletion_touched: Set[int] = set()
        # Per-phase net core change by id: rises in the insertion phase,
        # drops in the deletion phase.
        rose: Dict[int, int] = {}
        fell: Dict[int, int] = {}
        add_edge_ids, insert = graph.add_edge_ids, kernel.insert
        for u, v in delta.inserted:
            u_id, v_id = intern(u), intern(v)
            if add_edge_ids(u_id, v_id):
                visits += insert(u_id, v_id, insertion_touched, rose)

        remove_edge_ids, remove = graph.remove_edge_ids, kernel.remove
        for u, v in delta.removed:
            u_id, v_id = ids.get(u), ids.get(v)
            if u_id is not None and v_id is not None and remove_edge_ids(u_id, v_id):
                visits += remove(u_id, v_id, deletion_touched, fell)

        # A core number moves only when a traversal visits its id, so a
        # touched id's pre-update core is its core now minus its net change.
        core_of = kernel.icore.__getitem__
        pre_core = dict(zip(insertion_touched, map(core_of, insertion_touched)))
        pre_core.update(zip(deletion_touched, map(core_of, deletion_touched)))
        for changes in (rose, fell):
            for w, change in changes.items():
                pre_core[w] -= change
        if k is None:
            insertion_affected: AbstractSet[int] = frozenset()
            deletion_affected: AbstractSet[int] = frozenset()
        else:
            target = k - 1
            insertion_affected = {w for w in insertion_touched if core_of(w) == target}
            deletion_affected = {w for w in deletion_touched if core_of(w) == target}
        return DeltaEffect(
            graph.id_vertices,
            increased_ids=set(rose),
            decreased_ids=set(fell),
            insertion_affected_ids=insertion_affected,
            deletion_affected_ids=deletion_affected,
            insertion_touched_ids=insertion_touched,
            deletion_touched_ids=deletion_touched,
            pre_update_core_ids=pre_core,
            visited=visits,
        )

    def refresh_from_graph(self) -> None:
        """Recompute all core numbers from the current state of :attr:`graph`.

        Used when a caller mutates :attr:`graph` wholesale through its own
        mutators (e.g. IncAVT applies a snapshot delta so large that
        per-edge maintenance would cost more than one fresh decomposition —
        the situation the paper describes for high-churn snapshots).  Nothing
        is interned again: the cores come from the bucket cascade over the
        graph's rows, which already hold every added vertex and edge, and the
        level sets are rebuilt into the same list, so k-core views taken
        earlier stay live.
        """
        self._kernel.build()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Recompute core numbers with a full peel; raise on any divergence.

        Both stores are checked against the recomputation: the id list the
        traversals and the views read, and each set of the level store
        (``levels[r]`` must hold exactly the ids of core ``>= r``).
        """
        fresh = recompute_core_numbers(self._graph)
        kernel = self._kernel
        maintained = self.core_numbers()
        if fresh != maintained:
            differing = {
                vertex: (maintained.get(vertex), fresh.get(vertex))
                for vertex in set(fresh) | set(maintained)
                if maintained.get(vertex) != fresh.get(vertex)
            }
            raise InvariantViolationError(
                f"maintained core numbers (id list) diverged from "
                f"recomputation: {differing}"
            )
        icore = kernel.icore
        levels = kernel.levels
        for level in range(max(len(levels), max(icore, default=0) + 1)):
            expected = {vid for vid, value in enumerate(icore) if value >= level}
            actual = levels[level] if level < len(levels) else set()
            if actual != expected:
                vertex_of = self._graph.id_vertices.__getitem__
                raise InvariantViolationError(
                    f"maintained core numbers (level store) diverged from "
                    f"recomputation at level {level}: missing "
                    f"{set(map(vertex_of, expected - actual))}, extra "
                    f"{set(map(vertex_of, actual - expected))}"
                )
