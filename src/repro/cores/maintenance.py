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
up once, writes the edge to the graph's rows, and the kernel takes and
returns id sets; the pre-update cores and the touched sets are kept by id and
translated to vertices once per delta.

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


@dataclass
class DeltaEffect:
    """The effect of applying one snapshot delta to a maintained core index.

    Attributes
    ----------
    increased:
        Vertices whose core number rose while applying the delta.
    decreased:
        Vertices whose core number fell while applying the delta.
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
        Core number each touched vertex had *before* the delta (first-seen
        snapshot; vertices the delta created are recorded at their
        creation-time core 0, which correctly marks them as new at every
        ``k``).  Lets consumers reason about old-vs-new cores without copying
        the full core index.
    visited:
        Number of vertices visited by the maintenance traversals (used by the
        instrumentation figures).
    """

    increased: Set[Vertex] = field(default_factory=set)
    decreased: Set[Vertex] = field(default_factory=set)
    insertion_affected: Set[Vertex] = field(default_factory=set)
    deletion_affected: Set[Vertex] = field(default_factory=set)
    insertion_touched: Set[Vertex] = field(default_factory=set)
    deletion_touched: Set[Vertex] = field(default_factory=set)
    pre_update_core: Dict[Vertex, int] = field(default_factory=dict)
    visited: int = 0

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
    :meth:`insert` / :meth:`remove` with the endpoint ids; each runs its
    traversal and returns id sets.
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
    def insert(self, u_id: int, v_id: int) -> Tuple[Set[int], Set[int]]:
        """Run the insertion traversal of a just-added edge.

        Returns ``(risen, visited)``: the ids whose core number rose, and
        every id the traversal examined.
        """
        adj = self.adj
        icore = self.icore
        root_core = min(icore[u_id], icore[v_id])
        roots = [w for w in (u_id, v_id) if icore[w] == root_core]

        # Subcore: shell-root_core vertices reachable from the roots through
        # shell-root_core vertices.  Only these can rise, and by at most 1.
        candidates: Set[int] = set()
        stack: List[int] = []
        for root in roots:
            if root not in candidates:
                candidates.add(root)
                stack.append(root)
        while stack:
            current = stack.pop()
            for neighbour in adj[current]:
                if icore[neighbour] == root_core and neighbour not in candidates:
                    candidates.add(neighbour)
                    stack.append(neighbour)

        # Eviction: a candidate can rise only if it keeps more than root_core
        # neighbours among (higher-core vertices ∪ surviving candidates).
        # Candidates sit in low shells with short rows, where a list count
        # beats a set intersection.
        support: Dict[int, int] = {}
        for candidate in candidates:
            support[candidate] = len(
                [
                    neighbour
                    for neighbour in adj[candidate]
                    if icore[neighbour] > root_core or neighbour in candidates
                ]
            )
        evict_queue = [w for w, s in support.items() if s <= root_core]
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

        risen = candidates - evicted
        if risen:
            value = root_core + 1
            levels = self.levels
            if value == len(levels):
                levels.append(set())
            levels[value] |= risen
            for w in risen:
                icore[w] = value
        return risen, candidates

    # -- deletion cascade (Lemmas 3-4) --------------------------------------
    def remove(self, u_id: int, v_id: int) -> Tuple[Set[int], Set[int]]:
        """Run the deletion cascade of a just-removed edge.

        Returns ``(dropped, visited)`` ids.
        """
        adj = self.adj
        icore = self.icore
        root_core = min(icore[u_id], icore[v_id])
        # ``level`` holds exactly the ids of core >= root_core, so a vertex's
        # supporters (its max core degree) are its row intersected with it,
        # and only they can be visited.  A vertex drops when its support
        # falls below its core.  The cascade only lowers, so a supporter set
        # kept from a vertex's first visit holds every current supporter;
        # its other members were lowered, and the walk skips them.
        level = self.levels[root_core]
        visited: Set[int] = set()
        supporters: Dict[int, Set[int]] = {}
        support: Dict[int, int] = {}
        dropped: Set[int] = set()
        queue: List[int] = []
        for w in (u_id, v_id):
            if icore[w] == root_core and w not in dropped:
                visited.add(w)
                supporters[w] = found = adj[w] & level
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
        return dropped, visited


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
        risen, _ = self._kernel.insert(u_id, v_id)
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
        dropped, _ = self._kernel.remove(u_id, v_id)
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

        The delta runs on ids: each endpoint is looked up once, and the
        pre-update cores and the touched sets are kept by id and translated
        to vertices once, at the end.
        """
        if k is not None:
            require_int("k", k, 1)
        effect = DeltaEffect()
        if delta.is_empty():
            return effect
        for u, v in delta.inserted:
            if u == v:
                raise SelfLoopError(u)

        graph = self._graph
        kernel = self._kernel
        ids = graph.ids
        icore = kernel.icore
        pre_core: Dict[int, int] = {}
        visits = 0
        increased: Set[int] = set()
        insertion_touched: Set[int] = set()
        for u, v in delta.inserted:
            u_id, v_id = self._intern(u), self._intern(v)
            if not graph.add_edge_ids(u_id, v_id):
                continue
            pre_core.setdefault(u_id, icore[u_id])
            pre_core.setdefault(v_id, icore[v_id])
            risen, visited = kernel.insert(u_id, v_id)
            for w in visited:
                if w not in pre_core:
                    # An insertion raises a risen vertex by exactly 1.
                    pre_core[w] = icore[w] - (w in risen)
            increased |= risen
            insertion_touched.add(u_id)
            insertion_touched.add(v_id)
            insertion_touched |= visited
            visits += len(visited)

        decreased: Set[int] = set()
        deletion_touched: Set[int] = set()
        for u, v in delta.removed:
            u_id, v_id = ids.get(u), ids.get(v)
            if u_id is None or v_id is None or not graph.remove_edge_ids(u_id, v_id):
                continue
            pre_core.setdefault(u_id, icore[u_id])
            pre_core.setdefault(v_id, icore[v_id])
            dropped, visited = kernel.remove(u_id, v_id)
            for w in visited:
                if w not in pre_core:
                    # A deletion lowers a dropped vertex by exactly 1.
                    pre_core[w] = icore[w] + (w in dropped)
            decreased |= dropped
            deletion_touched.add(u_id)
            deletion_touched.add(v_id)
            deletion_touched |= visited
            visits += len(visited)

        effect.visited = visits
        vertex_of = graph.id_vertices.__getitem__
        effect.increased = set(map(vertex_of, increased))
        effect.decreased = set(map(vertex_of, decreased))
        effect.insertion_touched = set(map(vertex_of, insertion_touched))
        effect.deletion_touched = set(map(vertex_of, deletion_touched))
        effect.pre_update_core = {vertex_of(w): value for w, value in pre_core.items()}
        if k is not None:
            target = k - 1
            effect.insertion_affected = {
                vertex_of(w) for w in insertion_touched if icore[w] == target
            }
            effect.deletion_affected = {
                vertex_of(w) for w in deletion_touched if icore[w] == target
            }
        return effect

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
