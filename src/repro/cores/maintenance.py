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

The maintainer is backend-aware (see :mod:`repro.backends`): the public
hashable-vertex graph stays the source of truth for the *structure*, while
the traversals and the maintained core numbers live in the resolved
backend's :class:`~repro.backends.MaintenanceKernel`.  There are two: the
dict kernel walks the graph directly; the numpy backend's kernel
(:class:`~repro.backends.numpy_backend.CompactMaintenanceKernel`, pure
Python, because vectorisation cannot beat int-set traversals on per-edge
subcores) mirrors the adjacency into integer-id sets with O(1) upkeep per
edge operation.  Results are identical across backends, and a maintainer
can be migrated to another backend mid-flight via
:meth:`CoreMaintainer.switch_backend` (used by the streaming engine when an
initially small graph outgrows the dict backend).

The maintained core numbers are the single source of truth for the incremental
tracker; a :meth:`validate` hook recomputes them from scratch and raises if
they ever diverge, and the property-based tests exercise that hook on random
edit sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Union

from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.cores.decomposition import core_numbers as recompute_core_numbers
from repro.errors import InvariantViolationError, ParameterError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Edge, Graph, Vertex


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


class CoreMaintainer:
    """Maintains core numbers of a graph under edge insertions and deletions."""

    def __init__(
        self,
        graph: Graph,
        copy_graph: bool = True,
        core: Optional[Dict[Vertex, int]] = None,
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        """Wrap ``graph``; recompute core numbers unless ``core`` supplies them.

        ``core`` exists for checkpoint restore: a caller that persisted the
        maintained core numbers alongside the graph can resume without paying
        a fresh decomposition.  The values are trusted; :meth:`validate`
        cross-checks them on demand.  ``backend`` selects the traversal
        implementation (``"auto"`` resolves by initial graph size).
        """
        self._graph = graph.copy() if copy_graph else graph
        self._backend = get_backend(backend, self._graph.num_vertices)
        initial = (
            dict(core)
            if core is not None
            else recompute_core_numbers(self._graph, backend=self._backend)
        )
        self._kernel = self._backend.build_maintenance(self._graph, initial)
        self._visited_last = 0

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The maintained graph (mutated in place by the update methods)."""
        return self._graph

    @property
    def backend(self) -> str:
        """The name of the resolved execution backend (e.g. ``"dict"``)."""
        return self._backend.name

    @property
    def backend_instance(self) -> ExecutionBackend:
        """The resolved :class:`~repro.backends.ExecutionBackend` itself."""
        return self._backend

    def switch_backend(self, backend: Union[str, ExecutionBackend]) -> bool:
        """Migrate the maintained state onto another execution backend.

        Rebuilds the backend's maintenance kernel from the live graph and the
        *current* maintained core numbers — no decomposition is re-run, so
        the migration is O(n + m) structure mirroring only.  Returns whether
        a switch actually happened (requesting the current backend, or
        ``"auto"`` resolving to it, is a no-op).  The streaming engine calls
        this at flush time when a graph that started below the auto threshold
        outgrows the dict backend.
        """
        target = get_backend(backend, self._graph.num_vertices)
        if target.name == self._backend.name:
            return False
        self._kernel = target.build_maintenance(self._graph, self.core_numbers())
        self._backend = target
        return True

    def core_numbers(self) -> Dict[Vertex, int]:
        """Return a copy of the maintained core numbers."""
        return self._kernel.core_numbers()

    def core(self, vertex: Vertex) -> int:
        """Return the maintained core number of ``vertex``."""
        return self._kernel.core(vertex)

    def _core_get(self, vertex: Vertex, default: Optional[int] = None) -> Optional[int]:
        """``dict.get``-style lookup through the kernel."""
        return self._kernel.core_get(vertex, default)

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        """Return ``{v : core(v) >= k}`` under the maintained core numbers."""
        return self._kernel.k_core_vertices(k)

    def shell_vertices(self, k: int) -> Set[Vertex]:
        """Return ``{v : core(v) == k}`` under the maintained core numbers."""
        return self._kernel.shell_vertices(k)

    # ------------------------------------------------------------------
    # Single-edge updates
    # ------------------------------------------------------------------
    def insert_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Insert edge ``(u, v)`` and return the vertices whose core increased.

        Inserting an edge that already exists is a no-op returning the empty
        set.  New endpoints are added with core number updated from scratch
        locally (a fresh vertex starts at core 0 before the edge is counted).
        """
        for vertex in (u, v):
            if not self._graph.has_vertex(vertex):
                self._graph.add_vertex(vertex)
                self._kernel.add_vertex(vertex)
        if not self._graph.add_edge(u, v):
            return set()
        self._kernel.add_edge(u, v)
        increased, visited = self._kernel.process_insertion(u, v)
        self._visited_last = len(visited)
        self._visited_vertices_last = visited
        return increased

    def remove_edge(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Remove edge ``(u, v)`` and return the vertices whose core decreased.

        Removing an absent edge is a no-op returning the empty set.
        """
        if not self._graph.has_edge(u, v):
            return set()
        self._graph.remove_edge(u, v)
        self._kernel.remove_edge(u, v)
        decreased, visited = self._kernel.process_deletion(u, v)
        self._visited_last = len(visited)
        self._visited_vertices_last = visited
        return decreased

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

        When ``k`` is given, the returned :class:`DeltaEffect` also carries the
        ``VI`` / ``VR`` candidate pools for that ``k`` (vertices touched by the
        respective phase whose updated core number is ``k - 1``).  The
        k-independent ``touched`` sets are always recorded, counting only
        *effective* operations — inserting a present edge or removing an
        absent one leaves no trace, so consumers can treat an empty ``touched``
        as "the graph did not change".
        """
        if k is not None and k < 1:
            raise ParameterError("k must be >= 1 when requesting affected pools")
        effect = DeltaEffect()
        if delta.is_empty():
            return effect

        pre_core = effect.pre_update_core
        for u, v in delta.inserted:
            if self._graph.has_edge(u, v):
                continue
            for endpoint in (u, v):
                if endpoint not in pre_core:
                    value = self._core_get(endpoint)
                    if value is not None:
                        pre_core[endpoint] = value
            increased = self.insert_edge(u, v)
            for vertex in self._visited_vertices_last:
                if vertex not in pre_core:
                    # An insertion raises a risen vertex by exactly 1.
                    pre_core[vertex] = self.core(vertex) - (1 if vertex in increased else 0)
            effect.increased |= increased
            effect.insertion_touched.update((u, v))
            effect.insertion_touched |= increased
            effect.insertion_touched |= self._visited_vertices_last
            effect.visited += self._visited_last

        for u, v in delta.removed:
            if not self._graph.has_edge(u, v):
                continue
            for endpoint in (u, v):
                if endpoint not in pre_core:
                    pre_core[endpoint] = self.core(endpoint)
            decreased = self.remove_edge(u, v)
            for vertex in self._visited_vertices_last:
                if vertex not in pre_core:
                    # A deletion lowers a dropped vertex by exactly 1.
                    pre_core[vertex] = self.core(vertex) + (1 if vertex in decreased else 0)
            effect.decreased |= decreased
            effect.deletion_touched.update((u, v))
            effect.deletion_touched |= decreased
            effect.deletion_touched |= self._visited_vertices_last
            effect.visited += self._visited_last

        if k is not None:
            target = k - 1
            effect.insertion_affected = {
                vertex for vertex in effect.insertion_touched if self._core_get(vertex) == target
            }
            effect.deletion_affected = {
                vertex for vertex in effect.deletion_touched if self._core_get(vertex) == target
            }
        return effect

    def refresh_from_graph(self) -> None:
        """Recompute all core numbers from the current graph state.

        Used when a caller mutates the maintained graph wholesale (e.g. a
        snapshot delta so large that per-edge maintenance would cost more than
        one fresh decomposition — the situation the paper describes for
        high-churn snapshots).  The backend kernel is rebuilt alongside (the
        caller may have added or removed arbitrary edges and vertices).
        """
        fresh = recompute_core_numbers(self._graph, backend=self._backend)
        self._kernel = self._backend.build_maintenance(self._graph, fresh)
        self._visited_last = 0
        self._visited_vertices_last = set()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Recompute core numbers from scratch and raise on any divergence."""
        fresh = recompute_core_numbers(self._graph)
        maintained = self.core_numbers()
        if fresh != maintained:
            differing = {
                vertex: (maintained.get(vertex), fresh.get(vertex))
                for vertex in set(fresh) | set(maintained)
                if maintained.get(vertex) != fresh.get(vertex)
            }
            raise InvariantViolationError(
                f"maintained core numbers diverged from recomputation: {differing}"
            )

    # Default values so apply_delta can read them even before any update ran.
    # The traversal implementations themselves (Lemmas 1-4) live in the
    # backend maintenance kernels (repro/backends/).
    _visited_vertices_last: Set[Vertex] = frozenset()  # type: ignore[assignment]
    _visited_last: int = 0
