"""The K-order index (Definition 5) with remaining degrees.

The K-order of a graph records, per shell ``O_k``, the order in which core
decomposition removed the shell's vertices.  Two vertices compare as
``u ⪯ v`` when ``core(u) < core(v)``, or when their cores are equal and ``u``
was removed first.  The *remaining degree* ``deg+(u)`` is the number of
neighbours positioned after ``u`` in the K-order — the neighbours that were
still present when ``u`` was peeled.

The K-order drives two optimisations from Section 4:

* candidate pruning (Theorem 3): only a vertex with a neighbour ``v`` such
  that ``core(v) = k - 1`` and ``x ⪯ v`` can gain followers when anchored; and
* the OLAK/OrderInsert-style follower computation, which scans ``O_{k-1}``
  instead of re-running a full decomposition.

A K-order is *valid* when the recorded core numbers are the true core numbers
and ``deg+(u) <= core(u)`` holds for every vertex — exactly the condition for
the sequence to be a legal removal order.  :meth:`KOrder.validate` checks this
and is used by the property tests and by the maintenance layer's self-checks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Union

from repro.backends import BACKEND_AUTO, BACKEND_DICT, ExecutionBackend, get_backend
from repro.cores.decomposition import ANCHOR_CORE, CoreDecomposition, core_decomposition
from repro.errors import InvariantViolationError, VertexNotFoundError
from repro.graph.static import Graph, Vertex


class KOrder:
    """The K-order index of a graph snapshot.

    Instances are built from a :class:`CoreDecomposition` (or directly from a
    graph via :meth:`from_graph`) and expose O(1) order comparison, per-shell
    sequences and remaining degrees.  ``backend`` selects the execution layer
    (see :mod:`repro.backends`) for the decomposition and the
    remaining-degree pass; snapshot-based backends amortise one snapshot over
    both.  The resulting index is identical on every backend.
    """

    def __init__(
        self,
        graph: Graph,
        decomposition: Optional[CoreDecomposition] = None,
        backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    ) -> None:
        backend_obj = get_backend(backend)
        self._backend = backend_obj.name
        deg_plus: Optional[Dict[Vertex, int]] = None
        if decomposition is None:
            # korder() amortises one snapshot over the peel and the deg+ pass.
            decomposition, deg_plus = backend_obj.korder(graph)
        self._graph = graph
        self._core: Dict[Vertex, float] = dict(decomposition.core)
        self._anchors = set(decomposition.anchors)
        # Global rank: position of the vertex in the full removal order.
        self._rank: Dict[Vertex, int] = {
            vertex: position for position, vertex in enumerate(decomposition.order)
        }
        self._shells: Dict[int, List[Vertex]] = decomposition.shells()
        if deg_plus is None:
            # A caller-supplied decomposition leaves nothing to amortise a
            # snapshot build against, so the lone deg+ pass always runs on
            # the dict kernel — a snapshot-based backend would build an
            # O(n + m) structure to feed one O(n + m) pass.
            deg_plus = get_backend(BACKEND_DICT).remaining_degrees(graph, self._rank)
        self._deg_plus = deg_plus

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
    ) -> "KOrder":
        """Build the K-order of ``graph`` by running core decomposition."""
        return cls(graph, backend=backend)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph this K-order indexes (not copied)."""
        return self._graph

    def core(self, vertex: Vertex) -> float:
        """Return the core number recorded for ``vertex``."""
        try:
            return self._core[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def core_numbers(self) -> Dict[Vertex, float]:
        """Return a copy of the full core-number mapping."""
        return dict(self._core)

    def rank(self, vertex: Vertex) -> int:
        """Return the global removal rank of ``vertex`` (0 = removed first)."""
        try:
            return self._rank[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def precedes(self, u: Vertex, v: Vertex) -> bool:
        """Return whether ``u ⪯ v`` in K-order (strictly before)."""
        return self.rank(u) < self.rank(v)

    def remaining_degree(self, vertex: Vertex) -> int:
        """Return ``deg+(vertex)``: neighbours positioned after ``vertex``."""
        try:
            return self._deg_plus[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def shell_sequence(self, k: int) -> List[Vertex]:
        """Return the shell ``O_k`` in removal order (empty list if absent)."""
        return list(self._shells.get(k, []))

    def shell_set(self, k: int) -> Set[Vertex]:
        """Return the vertices of shell ``O_k`` as a set."""
        return set(self._shells.get(k, []))

    def shells(self) -> Dict[int, List[Vertex]]:
        """Return all shells as ``{core value: vertices in removal order}``."""
        return {k: list(sequence) for k, sequence in self._shells.items()}

    def max_core(self) -> int:
        """Return the largest finite core value present (0 if none)."""
        return max(self._shells, default=0)

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        """Return ``{v : core(v) >= k}`` (anchored vertices always qualify)."""
        return {vertex for vertex, value in self._core.items() if value >= k}

    # ------------------------------------------------------------------
    # Candidate pruning (Theorem 3)
    # ------------------------------------------------------------------
    def candidate_anchors(self, k: int) -> Set[Vertex]:
        """Return the Theorem-3 candidate anchors for parameter ``k``.

        A vertex ``x`` qualifies when it has a neighbour ``v`` with
        ``core(v) = k - 1`` and ``x ⪯ v``; such an ``x`` is the only kind of
        vertex whose anchoring can produce followers.  Vertices already in the
        k-core are excluded — anchoring them changes nothing.
        """
        candidates: Set[Vertex] = set()
        for vertex, value in self._core.items():
            if value >= k:
                continue
            rank = self._rank[vertex]
            for neighbour in self._graph.neighbors(vertex):
                if self._core.get(neighbour) == k - 1 and self._rank[neighbour] > rank:
                    candidates.add(vertex)
                    break
        return candidates

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, reference: Optional[Mapping[Vertex, float]] = None) -> None:
        """Check the K-order invariants, raising on violation.

        Checks that (1) the recorded core numbers match ``reference`` (a fresh
        decomposition of the indexed graph when not supplied), (2) the order is
        sorted by non-decreasing core, and (3) ``deg+(v) <= core(v)`` for every
        vertex, i.e. the sequence is a legal removal order.
        """
        if reference is None:
            reference = core_decomposition(self._graph).core
        if set(reference) != set(self._core):
            raise InvariantViolationError("K-order vertex set differs from the graph's")
        for vertex, value in reference.items():
            if self._core[vertex] != value and vertex not in self._anchors:
                raise InvariantViolationError(
                    f"core number of {vertex!r} is {self._core[vertex]} but should be {value}"
                )
        ordered = sorted(self._rank, key=self._rank.get)
        previous_core = 0.0
        for vertex in ordered:
            value = self._core[vertex]
            if value < previous_core:
                raise InvariantViolationError(
                    f"K-order is not sorted by core number at vertex {vertex!r}"
                )
            previous_core = value
        for vertex in ordered:
            value = self._core[vertex]
            if value == ANCHOR_CORE:
                continue
            if self._deg_plus[vertex] > value:
                raise InvariantViolationError(
                    f"deg+({vertex!r}) = {self._deg_plus[vertex]} exceeds core number {value}"
                )

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._core

    def __len__(self) -> int:
        return len(self._core)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KOrder(n={len(self._core)}, max_core={self.max_core()})"
