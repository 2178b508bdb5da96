"""Anchored core index: the working state of the greedy anchor-selection loops.

The greedy algorithms of Section 4 repeatedly (1) enumerate candidate anchors,
(2) compute each candidate's marginal followers, and (3) commit the best
candidate.  After committing an anchor, the graph behaves as if that vertex had
infinite degree, so the core numbers that drive steps (1) and (2) must be the
*anchored* core numbers.  :class:`AnchoredCoreIndex` packages that state:

* the anchored core numbers of the current graph + anchor set capped at
  ``k``, and the removal order within each component of the
  ``(k-1)``-shell, built by a cascade over the levels below ``k`` at
  construction and kept up to date whenever an anchor is committed;
* Theorem-3 candidate pruning with or without the K-order position condition;
* fast marginal follower computation (shell-local cascade); and
* the instrumentation counters (candidates evaluated, vertices visited) that
  the paper's Figures 4, 6 and 8 report.

The index is execution-backend-agnostic: it validates inputs, owns the anchor
set and the instrumentation, and delegates every kernel — the capped build,
the candidate scans, the follower cascades — to the
:class:`~repro.backends.CoreIndexKernel` built by the resolved
:class:`~repro.backends.ExecutionBackend` (``backend="auto"`` picks numpy
when it is available and dict otherwise; see :mod:`repro.backends`).
Snapshot-based kernels build their snapshot once for the index's lifetime —
valid because the solvers never mutate the graph during a selection run —
and results are identical on both backends.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Optional, Set, Tuple, Union

from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.errors import (
    VertexNotFoundError,
    distinct_vertices,
    require_hashable,
    require_int,
)
from repro.graph.static import Graph, Vertex
from repro.obs import tracer


class AnchoredCoreIndex:
    """Mutable index of a graph, a degree constraint ``k`` and a growing anchor set.

    ``backend`` selects the execution layer (``"auto"``, ``"dict"``,
    ``"numpy"``, or an :class:`~repro.backends.ExecutionBackend` instance — see
    :mod:`repro.backends`).  The graph must not be mutated while the index is
    alive (the solvers never do).

    The state is capped at this index's ``k`` from construction on (the
    capped contract of :mod:`repro.backends.base`): every core number
    equals ``min(anchored core number, k)`` with anchors at infinity, each
    connected component of the ``(k-1)``-shell's subgraph keeps its
    full-peel removal order, and the shell ranks after every lower vertex;
    other positions, and the order between shell components, are
    unspecified.  Construction and :meth:`commit_anchor` both keep that
    state, and every query method reads only ``core >= k``,
    ``core == k - 1`` and those positions (Theorem-3 pruning compares a
    shell member only with its neighbours below ``k``, which lie in its own
    component or below the shell), so its answers equal those on a full
    anchored peel.  Use
    :func:`~repro.cores.decomposition.anchored_core_decomposition` for exact
    values at every level.
    """

    def __init__(
        self,
        graph: Graph,
        k: int,
        anchors: Iterable[Vertex] = (),
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        require_int("k", k, 1)
        self._graph = graph
        self._k = k
        self._anchors: Set[Vertex] = set(distinct_vertices("anchors", anchors))
        for anchor in self._anchors:
            if not graph.has_vertex(anchor):
                raise VertexNotFoundError(anchor)
        self._backend = get_backend(backend)
        self._kernel = self._backend.build_core_index(graph)
        self._plain_k_core: Optional[Set[Vertex]] = None
        # Instrumentation shared with the solver wrappers.
        self.candidates_evaluated = 0
        self.visited_vertices = 0
        with tracer.span(
            "kernel.peel",
            backend=self._backend.name,
            vertices=graph.num_vertices,
            anchors=len(self._anchors),
        ):
            self._kernel.refresh(self._anchors, k)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying graph (not copied)."""
        return self._graph

    @property
    def k(self) -> int:
        """The degree constraint."""
        return self._k

    @property
    def backend(self) -> str:
        """The name of the resolved execution backend (e.g. ``"dict"``)."""
        return self._backend.name

    @property
    def kernel(self):
        """The live :class:`~repro.backends.CoreIndexKernel` (observability).

        Exposed for instrumentation readers and tests; treat as read-only.
        """
        return self._kernel

    @property
    def anchors(self) -> Set[Vertex]:
        """A copy of the current anchor set."""
        return set(self._anchors)

    def core(self, vertex: Vertex) -> float:
        """Return ``min(anchored core number, k)`` for ``vertex`` (anchors
        map to infinity; see the class docstring)."""
        return self._kernel.core_of(vertex)

    def core_numbers(self) -> Mapping[Vertex, float]:
        """Return the anchored core-number mapping (live, do not mutate),
        capped at ``k`` as :meth:`core`."""
        return self._kernel.core_numbers()

    def anchored_core_vertices(self) -> Set[Vertex]:
        """Return the anchored k-core ``C_k(S)`` under the current anchor set."""
        return self._kernel.vertices_with_core_at_least(self._k)

    def anchored_core_size(self) -> int:
        """Return ``|C_k(S)|``."""
        return self._kernel.count_core_at_least(self._k)

    def plain_k_core(self) -> Set[Vertex]:
        """Return the k-core of the graph without any anchors (cached)."""
        if self._plain_k_core is None:
            self._plain_k_core = self._kernel.plain_k_core(self._k)
        return set(self._plain_k_core)

    def followers(self) -> Set[Vertex]:
        """Return the followers of the current anchor set (Definition 3)."""
        return self.anchored_core_vertices() - self.plain_k_core() - self._anchors

    def shell(self) -> Set[Vertex]:
        """Return the ``(k-1)``-shell under the anchored core numbers."""
        return self._kernel.shell_vertices(self._k - 1)

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def candidate_anchors(self, order_pruning: bool = True) -> Set[Vertex]:
        """Return candidate anchors under the current anchored core numbers.

        A candidate must not already be anchored and must lie outside the
        anchored k-core.  With ``order_pruning`` (Theorem 3) it must also have
        a neighbour ``v`` with core ``k - 1`` positioned *after* it in the
        anchored removal order; without pruning the positional condition is
        dropped (the coarser filter used by the OLAK adaptation).
        """
        return self._kernel.candidate_anchors(self._k, order_pruning)

    def all_non_core_vertices(self) -> Set[Vertex]:
        """Return every un-anchored vertex outside the anchored k-core.

        This is the unpruned candidate universe that the per-snapshot OLAK
        adaptation scans, and the universe the brute-force solver enumerates.
        """
        return self._kernel.non_core_vertices(self._k)

    # ------------------------------------------------------------------
    # Follower evaluation
    # ------------------------------------------------------------------
    def marginal_followers(self, candidate: Vertex, full_shell: bool = False) -> Set[Vertex]:
        """Return the followers gained by anchoring ``candidate`` next.

        ``full_shell`` selects the unrestricted shell scan (OLAK-style, visits
        every shell vertex) instead of the region-restricted cascade; both
        return the same set, the flag only changes the amount of work counted
        by the instrumentation.
        """
        with tracer.span("kernel.marginal_followers", full_shell=full_shell) as mf_span:
            gained, visited = self._kernel.marginal_followers(
                self._k, candidate, full_shell
            )
            mf_span.set(visited=visited, gained=len(gained))
        self.candidates_evaluated += 1
        self.visited_vertices += max(visited, 1)
        return gained

    def evaluate_candidate(
        self, candidate: Vertex
    ) -> Tuple[Set[Vertex], int, FrozenSet[Vertex]]:
        """Like :meth:`marginal_followers` but also reports the read scope.

        Returns ``(gained, visited, region)``: the followers gained by
        anchoring ``candidate`` next, the raw visited count of the cascade,
        and the explored shell-local region.  Instrumentation is updated
        exactly as by :meth:`marginal_followers`; ``visited`` is returned raw
        so a memoizing caller can replay it later through
        :meth:`record_cached_evaluation`.
        """
        with tracer.span("kernel.marginal_followers_with_region") as mf_span:
            gained, visited, region = self._kernel.marginal_followers_with_region(
                self._k, candidate
            )
            mf_span.set(visited=visited, gained=len(gained))
        self.candidates_evaluated += 1
        self.visited_vertices += max(visited, 1)
        return gained, visited, region

    def record_cached_evaluation(self, visited: int) -> None:
        """Account one memoized candidate evaluation in the instrumentation.

        The paper's counters (``candidates_evaluated``, ``visited_vertices``)
        report the *algorithmic* work of the greedy selection; a memoized
        evaluation replays the counts its cascade reported when it actually
        ran, so the instrumentation stays bit-identical to a fresh
        evaluation while the cascades themselves are skipped.
        """
        self.candidates_evaluated += 1
        self.visited_vertices += max(visited, 1)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def commit_anchor(self, vertex: Vertex) -> FrozenSet[Vertex]:
        """Commit ``vertex`` as an anchor through the kernel's incremental path.

        The kernel keeps the state capped at ``k`` (the delta-refresh
        contract of :mod:`repro.backends.base`).  Returns the *touched set*:
        every vertex whose stored core number changed, the new anchor
        included.  Committing an existing anchor is a no-op and returns an
        empty set.
        """
        require_hashable("vertex", vertex)
        if not self._graph.has_vertex(vertex):
            raise VertexNotFoundError(vertex)
        if vertex in self._anchors:
            return frozenset()
        self._anchors.add(vertex)
        with tracer.span(
            "kernel.commit_anchor", backend=self._backend.name
        ) as commit_span:
            touched = self._kernel.commit_anchor(vertex, self._anchors, self._k)
            commit_span.set(touched=len(touched))
        return touched
