"""Follower computation for anchored k-cores (Definitions 3-4, Algorithm 3).

Anchoring a vertex exempts it from the degree constraint of the k-core; the
*followers* of an anchor set are the additional vertices that the exemption
drags into the k-core.  Two implementations are provided:

* :func:`anchored_k_core` / :func:`compute_followers` — exact for arbitrary
  anchor sets.  Without a precomputed plain k-core, :func:`compute_followers`
  is the O(n + m) deletion-cascade reference (two runs of
  :func:`repro.cores.decomposition.k_core_cascade`, the one k-core cascade
  of the library); given one, it grows a region
  from the anchors outside the k-core and peels only that, so its work
  follows the anchors rather than the graph; and
* :func:`marginal_followers` — the fast single-anchor computation used inside
  the greedy loops.  It explores only the ``(k-1)``-shell region reachable from
  the candidate anchor (every follower of a single anchor has core number
  exactly ``k-1`` and must be connected to the anchor through followers), which
  is the shell-local equivalent of the paper's OrderInsert-based Algorithm 3.

:func:`commit_anchor_cores` builds on the fast path: it raises a core-number
mapping to the anchored core numbers after one more anchor, capped at a given
level, with per-level :func:`marginal_followers` cascades, and returns the
list that undoes it.

The two are property-tested against each other, as are the two paths of
:func:`compute_followers`; the greedy algorithms use the fast path and the
test-suite keeps the reference honest.

The numpy backend runs the same cascades over its interned snapshot: the
region cascade and :func:`commit_anchor_cores` as integer-id twins
(:func:`repro.cores.decomposition.compact_marginal_followers` and
:func:`repro.cores.decomposition.commit_anchor_ids`), and the whole-shell
cascade as vectorised passes.  IncAVT's swap/fill pass runs the same id
twins over the core maintainer's ids.  Both backends return identical
follower sets and report the same visited-vertex counts for the paper's
instrumentation figures.
"""

from __future__ import annotations

from typing import (
    Container,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.backends import BACKEND_AUTO, ExecutionBackend, resolve_backend
from repro.cores.decomposition import ANCHOR_CORE, k_core_cascade
from repro.errors import (
    VertexNotFoundError,
    distinct_vertices,
    require_hashable,
    require_int,
)
from repro.graph.static import Graph, Vertex


def anchored_k_core(graph: Graph, k: int, anchors: Iterable[Vertex] = ()) -> Set[Vertex]:
    """Return the anchored k-core ``C_k(S)``: k-core plus anchors plus followers.

    Anchored vertices are never peeled.  With an empty anchor set this is the
    plain k-core.  Runs a single O(n + m) deletion cascade over the
    adjacency-set graph (:func:`~repro.cores.decomposition.k_core_cascade`).
    """
    anchor_set = set(distinct_vertices("anchors", anchors))
    _check_query(graph, k, anchor_set)
    return k_core_cascade(graph, k, anchor_set)


def _check_query(graph: Graph, k: int, anchor_set: Set[Vertex]) -> None:
    """Reject a ``k`` that is not a non-negative integer and anchors that are
    not vertices of ``graph``."""
    require_int("k", k, 0)
    for anchor in anchor_set:
        if not graph.has_vertex(anchor):
            raise VertexNotFoundError(anchor)


def compute_followers(
    graph: Graph,
    k: int,
    anchors: Iterable[Vertex],
    k_core_vertices: Optional[Container[Vertex]] = None,
    backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
) -> Set[Vertex]:
    """Return ``F_k(S, G)``: the followers of the anchor set ``S`` (Definition 3).

    Followers are the members of the anchored k-core that are neither anchors
    nor members of the plain k-core ``K``.

    Without ``k_core_vertices`` this is the reference: two O(n + m) deletion
    cascades (the anchored k-core and the plain one).

    With ``k_core_vertices`` — which must be exactly the plain k-core ``K``,
    given as any container that answers ``in`` (a set, or the O(1) live view
    of :meth:`repro.cores.maintenance.CoreMaintainer.k_core_vertices`) —
    the work follows the anchors instead of the graph.  Only membership is
    asked of ``K``; it is never iterated.  A
    region grows from the anchors outside ``K`` through vertices
    that are not in ``K``, not anchors and have degree at least ``k``; each
    region vertex counts its supporters (neighbours in ``K``, in ``S`` or in
    the region), and a local cascade peels every vertex left with fewer than
    ``k``.  The survivors are the followers.  The region holds every
    follower: were a set ``F''`` of followers unreachable from the anchors
    outside ``K`` along followers, every anchored-core neighbour of a vertex
    of ``F''`` would lie in ``K ∪ F''``, so ``K ∪ F''`` would have minimum
    degree ``k`` and ``F''`` would be inside ``K``.

    Both paths run over the adjacency-set graph.  ``backend`` is checked by
    name, so a typo is a :class:`~repro.errors.ParameterError`, and is
    otherwise unused; it stays only for callers that still pass it, as
    :func:`repro.backends.resolve_backend` keeps ``num_vertices``.
    """
    resolve_backend(backend)
    anchor_set = set(distinct_vertices("anchors", anchors))
    if k_core_vertices is None:
        anchored = anchored_k_core(graph, k, anchor_set)
        return anchored - anchored_k_core(graph, k) - anchor_set
    _check_query(graph, k, anchor_set)

    region: Set[Vertex] = set()
    stack = [anchor for anchor in anchor_set if anchor not in k_core_vertices]
    while stack:
        for neighbour in graph.neighbors(stack.pop()):
            if (
                neighbour not in region
                and neighbour not in k_core_vertices
                and neighbour not in anchor_set
                and graph.degree(neighbour) >= k
            ):
                region.add(neighbour)
                stack.append(neighbour)

    support: Dict[Vertex, int] = {}
    for vertex in region:
        support[vertex] = sum(
            1
            for neighbour in graph.neighbors(vertex)
            if neighbour in k_core_vertices or neighbour in anchor_set or neighbour in region
        )
    removal_queue = [vertex for vertex, count in support.items() if count < k]
    removed: Set[Vertex] = set()
    while removal_queue:
        vertex = removal_queue.pop()
        if vertex in removed:
            continue
        removed.add(vertex)
        for neighbour in graph.neighbors(vertex):
            if neighbour in region and neighbour not in removed:
                support[neighbour] -= 1
                if support[neighbour] < k:
                    removal_queue.append(neighbour)
    return region - removed


def follower_gain(
    graph: Graph,
    k: int,
    base_anchors: Iterable[Vertex],
    candidate: Vertex,
    k_core_vertices: Optional[Container[Vertex]] = None,
) -> Set[Vertex]:
    """Return the extra followers gained by adding ``candidate`` to ``base_anchors``.

    This is the exact (reference) marginal-gain computation:
    ``F_k(S ∪ {x}) \\ (F_k(S) ∪ {x})``.
    """
    base_set = set(distinct_vertices("base_anchors", base_anchors))
    require_hashable("candidate", candidate)
    base_followers = compute_followers(graph, k, base_set, k_core_vertices)
    extended = compute_followers(graph, k, base_set | {candidate}, k_core_vertices)
    return extended - base_followers - {candidate}


def marginal_followers(
    graph: Graph,
    k: int,
    candidate: Vertex,
    core: Mapping[Vertex, float],
    visit_log: Optional[List[Vertex]] = None,
    region_out: Optional[Set[Vertex]] = None,
) -> Set[Vertex]:
    """Fast follower computation for a single candidate anchor.

    ``core`` must hold the core numbers of the *current* (possibly already
    anchored) graph: for a plain graph the output of
    :func:`repro.cores.decomposition.core_numbers`, or the anchored core
    numbers maintained by :class:`repro.anchored.anchored_core.AnchoredCoreIndex`
    when a partial anchor set has already been fixed (previously selected
    anchors then carry :data:`~repro.cores.decomposition.ANCHOR_CORE`).

    The computation explores only the ``(k-1)``-shell region reachable from the
    candidate and cascades locally: a region vertex survives when its
    supporters — neighbours already in the k-core (core ≥ k), the candidate
    itself, and surviving region vertices — number at least ``k``.  This is
    exact because every follower of a single anchor has core number exactly
    ``k-1`` and must reach the anchor through follower-to-follower edges.

    Parameters
    ----------
    visit_log:
        When supplied, every vertex touched by the exploration is appended,
        which feeds the "visited candidate vertices" instrumentation of
        Figures 4, 6 and 8.
    region_out:
        When supplied, the explored shell-local region (candidate excluded)
        is added to it — the read scope of this evaluation, which memoizing
        callers key cache invalidation on.
    """
    require_int("k", k, 1)
    require_hashable("candidate", candidate)
    if not graph.has_vertex(candidate):
        raise VertexNotFoundError(candidate)
    candidate_core = core[candidate]
    if candidate_core >= k:
        # Already inside the k-core: anchoring it changes nothing.
        return set()

    target = k - 1
    # Region growth: shell-(k-1) vertices reachable from the candidate through
    # shell-(k-1) vertices.
    region: Set[Vertex] = set()
    stack: List[Vertex] = []
    for neighbour in graph.neighbors(candidate):
        if core.get(neighbour) == target and neighbour not in region:
            region.add(neighbour)
            stack.append(neighbour)
    # The candidate itself may sit in the shell; its own shell neighbours are
    # already seeded above, so the candidate is treated purely as an anchor.
    while stack:
        current = stack.pop()
        if visit_log is not None:
            visit_log.append(current)
        for neighbour in graph.neighbors(current):
            if (
                core.get(neighbour) == target
                and neighbour not in region
                and neighbour != candidate
            ):
                region.add(neighbour)
                stack.append(neighbour)

    if region_out is not None:
        region_out.update(region)
    if not region:
        return set()

    # Local cascade: count supporters for each region vertex.
    support: Dict[Vertex, int] = {}
    for vertex in region:
        count = 0
        for neighbour in graph.neighbors(vertex):
            if neighbour == candidate:
                count += 1
            elif core.get(neighbour, -1) >= k:
                count += 1
            elif neighbour in region:
                count += 1
        support[vertex] = count

    removal_queue = [vertex for vertex, count in support.items() if count < k]
    removed: Set[Vertex] = set()
    while removal_queue:
        vertex = removal_queue.pop()
        if vertex in removed:
            continue
        removed.add(vertex)
        if visit_log is not None:
            visit_log.append(vertex)
        for neighbour in graph.neighbors(vertex):
            if neighbour in region and neighbour not in removed:
                support[neighbour] -= 1
                if support[neighbour] < k:
                    removal_queue.append(neighbour)
    return region - removed


def commit_anchor_cores(
    graph: Graph,
    anchor: Vertex,
    core: MutableMapping[Vertex, float],
    cap: int,
) -> List[Tuple[Vertex, float]]:
    """Raise ``core`` in place to the anchored core numbers with ``anchor``
    added, cascading only the levels up to ``cap``.

    ``core`` holds the anchored core numbers of the current anchor set
    (anchors at :data:`~repro.cores.decomposition.ANCHOR_CORE`).  Adding one
    anchor raises every other core number by at most 1, and the vertices that
    rise to level ``j`` are exactly the anchor's level-``j`` followers on the
    old numbers: one :func:`marginal_followers` cascade per level
    ``j - 1 ∈ {core(u) : u ∈ N(anchor), core(u) >= core(anchor)}``.  A
    level-``j`` follower has old core ``j - 1``, so a vertex rises at one
    level only, and other levels gain nothing: below that set the anchor was
    already in the j-core, above it the anchor has no shell-``(j-1)``
    neighbour to seed a region.  Each cascade reads only the old numbers, so
    the writes happen after all of them.  The dict kernel's ``commit_anchor``
    runs it with ``cap=k``.  :func:`repro.cores.decomposition.commit_anchor_ids`
    is its id twin, which the numpy kernel and IncAVT's swap/fill pass run.

    Returns ``[(vertex, previous value)]`` for every changed vertex, the
    anchor first.  Each vertex appears once, so writing the pairs back in
    reverse order, across any number of commits, restores ``core`` exactly.

    **Cap.**  Only levels ``j <= cap`` are cascaded.  The result is still
    exact below ``cap``: a value the skipped levels leave stale is ``>= cap``
    both before and after, and every test a level-``j`` cascade with
    ``j <= cap`` makes (``== j - 1`` and ``>= j``) answers the same for it as
    for the true value.  So after any sequence of commits, ``min(core[v],
    cap)`` equals the anchored core number capped at ``cap``, and evaluations
    at ``k = cap`` (which test only ``== k - 1`` and ``>= k``) read the same
    as on the true numbers.  A cap above the maximum degree cascades every
    level and gives the exact anchored core numbers.  On large graphs almost
    all of that work sits at the levels above ``k``, around the hubs.
    """
    anchor_core = core[anchor]
    levels: Set[int] = set()
    for neighbour in graph.neighbors(anchor):
        value = core[neighbour]
        if anchor_core <= value < cap:
            levels.add(int(value) + 1)

    touched: List[Tuple[Vertex, float]] = [(anchor, anchor_core)]
    risers_by_level: Dict[int, Set[Vertex]] = {}
    for j in levels:
        risers = marginal_followers(graph, j, anchor, core)
        if risers:
            risers_by_level[j] = risers
            touched.extend((vertex, core[vertex]) for vertex in risers)
    for j, risers in risers_by_level.items():
        for vertex in risers:
            core[vertex] = j
    core[anchor] = ANCHOR_CORE
    return touched


def full_shell_followers(
    graph: Graph,
    k: int,
    candidate: Vertex,
    core: Mapping[Vertex, float],
    visit_log: Optional[List[Vertex]] = None,
) -> Set[Vertex]:
    """Single-anchor follower computation that scans the entire ``(k-1)``-shell.

    Returns exactly the same set as :func:`marginal_followers` but runs the
    survival cascade over every shell vertex instead of only the region
    reachable from the candidate — the behaviour of the OLAK adaptation used as
    a baseline, which therefore reports many more visited vertices.
    """
    require_int("k", k, 1)
    require_hashable("candidate", candidate)
    if not graph.has_vertex(candidate):
        raise VertexNotFoundError(candidate)
    if core[candidate] >= k:
        return set()

    target = k - 1
    shell = {vertex for vertex, value in core.items() if value == target and vertex != candidate}
    if visit_log is not None:
        visit_log.extend(shell)
    if not shell:
        return set()

    support: Dict[Vertex, int] = {}
    for vertex in shell:
        count = 0
        for neighbour in graph.neighbors(vertex):
            if neighbour == candidate:
                count += 1
            elif core.get(neighbour, -1) >= k:
                count += 1
            elif neighbour in shell:
                count += 1
        support[vertex] = count

    removal_queue = [vertex for vertex, count in support.items() if count < k]
    removed: Set[Vertex] = set()
    while removal_queue:
        vertex = removal_queue.pop()
        if vertex in removed:
            continue
        removed.add(vertex)
        if visit_log is not None:
            visit_log.append(vertex)
        for neighbour in graph.neighbors(vertex):
            if neighbour in shell and neighbour not in removed:
                support[neighbour] -= 1
                if support[neighbour] < k:
                    removal_queue.append(neighbour)
    return shell - removed
