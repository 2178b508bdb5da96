"""The :class:`ExecutionBackend` protocol: the kernel surface of the library.

The kernels whose implementation differs between the backends — the
candidate scans and follower cascades behind
:class:`repro.anchored.anchored_core.AnchoredCoreIndex` — are expressed
against the abstract surface defined here.  The rest is not: the full peel
is one heap peel over the adjacency-set graph
(:func:`repro.cores.decomposition.anchored_core_decomposition`), the k-core
is one deletion cascade over it
(:func:`repro.cores.decomposition.k_core_cascade`), and incremental core
maintenance (:class:`repro.cores.maintenance.CoreMaintainer`) runs one
integer-id kernel of its own, on every backend.  Public modules never
branch on a backend name; they obtain an :class:`ExecutionBackend` from
:func:`repro.backends.get_backend` and call through it.  There are two,
``dict`` and ``numpy``; any object implementing this surface can also be
passed as ``backend=`` wherever a name can (tests substitute fakes this
way).

The surface is one long-lived kernel handle that amortises a per-graph
setup cost: :class:`CoreIndexKernel`, the state behind
``AnchoredCoreIndex``, which :meth:`ExecutionBackend.build_core_index`
builds.  It holds
the anchored core numbers capped at the index's ``k`` and the
``(k-1)``-shell's removal order, kept up to date as anchors commit, plus the
candidate scans and follower cascades that read them.  It is built once per
(graph, solver run); the graph must not mutate while it is alive.

Contract shared by all implementations (enforced by
``tests/test_backend_equivalence.py``): identical capped core numbers,
each ``(k-1)``-shell component ranked in the full peel's order (every tie
broken by :func:`repro.ordering.tie_break_key`), identical follower sets
and identical visited-vertex instrumentation counts.

A solve over a maintained graph — the engine's cold and exact queries,
IncAVT's first snapshot and its restarts — runs on the backend that
:meth:`ExecutionBackend.bound_to` returns for the
:class:`~repro.cores.maintenance.CoreMaintainer`.  The numpy backend's bound
form builds the snapshot in the maintainer's own ids, from its adjacency
sets, instead of interning the graph again, and its index reads the
maintained core numbers instead of deriving them again: with no anchors
it neither peels nor runs the k-core cascade.  An unbound numpy index over
a bare graph derives the capped cores from scratch, with a peel stopped at
level ``k`` that translates into ids only the rows of the vertices it
removes.  Either way the snapshot's CSR holds only the rows of the ids
below ``k``, since anchoring only raises a core.  No kernel reads an order
from the ids or from the order inside a row: the cascades are confluent,
and the shell order's heap breaks its ties by the tie-break keys of the
shell members it orders.

The capped contract
-------------------
A :class:`CoreIndexKernel` keeps only what a greedy round at the index's
``k`` reads.  After :meth:`CoreIndexKernel.refresh` (anchors, ``k``) and
after every :meth:`CoreIndexKernel.commit_anchor` at the same ``k``:

* every core number equals ``min(anchored core number, k)``, and anchors
  are infinity;
* within each connected component of the ``(k-1)``-shell's subgraph, the
  members appear in the removal ranks in the same relative order as in a
  full anchored peel;
* every ``(k-1)``-shell member ranks after every vertex below ``k - 1``.
  Other positions, and the order between two shell components, are
  unspecified.

The core numbers are identical across backends; the ranks may differ
between shell components.  Every query at that ``k`` answers as on the
full peel's state, because each one tests only ``core >= k`` or
``core == k - 1``, and Theorem-3 pruning compares a ``(k-1)``-shell
member's rank only with its neighbours below ``k``, which lie in its own
component or below the shell.  The full exact peel is
:func:`repro.cores.decomposition.anchored_core_decomposition`, on no
backend.  The built-in kernels build the state
with a cascade over the levels ``0 .. k-1`` only (the dict backend's bucket
cascade :func:`repro.backends.dict_backend.dict_capped_cores`, or the numpy
backend's level-limited waves), except that the numpy backend's bound
form copies the maintained cores capped at ``k`` and, only for anchors,
runs its waves over the rows below ``k``; each then orders the
``(k-1)``-shell with one within-shell cascade.

The delta-refresh contract
--------------------------
:meth:`CoreIndexKernel.commit_anchor` is the incremental sibling of
:meth:`CoreIndexKernel.refresh` for the one mutation the greedy solvers ever
perform: adding a single anchor.  It keeps the capped contract for the
enlarged anchor set.  The return value is the *touched set*: every vertex
whose stored core number changed (the new anchor included, finite →
infinity).  The memoized Greedy invalidates its cached gains by it, so it
must be exact, and the method has no fallback.  The built-in kernels run
the single-anchor riser cascades at levels up to ``k`` only
(:func:`repro.anchored.followers.commit_anchor_cores`, whose docstring
gives the exactness argument, and its id twin
:func:`repro.cores.decomposition.commit_anchor_ids` behind the numpy
kernel), which lift a vertex to at most ``k``, then re-order the
``(k-1)``-shell the same way as :meth:`~CoreIndexKernel.refresh`.  The
numpy kernel re-orders only the shell components that contain or neighbour
a touched vertex, ranked above every rank it handed out before, so every
other component keeps its ranks; the dict kernel re-orders the whole
shell.  Both meet the capped contract.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    FrozenSet,
    Mapping,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cores.maintenance import CoreMaintainer
    from repro.graph.static import Graph, Vertex

# ---------------------------------------------------------------------------
# Backend names
# ---------------------------------------------------------------------------
#: Resolution policy: numpy whenever it is available, else dict.
BACKEND_AUTO = "auto"
#: The adjacency-set ``dict`` implementation (hashable vertices, no setup).
BACKEND_DICT = "dict"
#: Kernels over an interned CSR snapshot: vectorised numpy passes plus
#: id-list cascades (optional dependency).
BACKEND_NUMPY = "numpy"

#: Every backend name a ``backend=`` argument accepts.
BACKENDS = (BACKEND_AUTO, BACKEND_DICT, BACKEND_NUMPY)


class CoreIndexKernel(ABC):
    """Per-graph state behind :class:`repro.anchored.anchored_core.AnchoredCoreIndex`.

    The kernel owns the capped anchored core numbers and removal ranks of a
    fixed graph snapshot (the capped contract in the module docstring) and
    builds them on :meth:`refresh`.  All query methods read the state
    established by the most recent refresh or commit, at the same ``k``.
    Vertices are the caller's hashable ids at this boundary;
    implementations translate internally as needed.
    """

    @abstractmethod
    def refresh(self, anchors: Set["Vertex"], k: int) -> None:
        """Build the capped state for ``anchors`` at ``k``: core numbers
        ``min(anchored core, k)``, each ``(k-1)``-shell component ranked in
        full-peel order, and the shell after every lower vertex."""

    @abstractmethod
    def commit_anchor(
        self, vertex: "Vertex", anchors: Set["Vertex"], k: int
    ) -> FrozenSet["Vertex"]:
        """Add one anchor incrementally; return the touched set.

        ``anchors`` is the *full* new anchor set, ``vertex`` the one member
        that was just added, and ``k`` the degree constraint the state is
        kept for.  Afterwards the state must satisfy the capped contract in
        the module docstring.  Returns the exact set of vertices whose core
        number changed.
        """

    @abstractmethod
    def removal_ranks(self) -> Mapping["Vertex", int]:
        """The current removal ranks (tests and diagnostics).

        Only the relative order within each connected component of the
        ``(k-1)``-shell's subgraph and the shell's place after every lower
        vertex are specified; ranks need not be contiguous, and positions
        outside the shell or between two shell components are unspecified.
        """

    @abstractmethod
    def core_of(self, vertex: "Vertex") -> float:
        """Anchored core number of ``vertex`` capped at ``k``
        (``min(core, k)``; anchors map to infinity)."""

    @abstractmethod
    def core_numbers(self) -> Mapping["Vertex", float]:
        """The capped anchored core-number mapping (live, do not mutate;
        capped as :meth:`core_of`)."""

    @abstractmethod
    def vertices_with_core_at_least(self, k: int) -> Set["Vertex"]:
        """``{v : core(v) >= k}`` under the current anchored core numbers."""

    @abstractmethod
    def count_core_at_least(self, k: int) -> int:
        """``|{v : core(v) >= k}|`` without materialising the set."""

    @abstractmethod
    def shell_vertices(self, value: int) -> Set["Vertex"]:
        """``{v : core(v) == value}`` under the current anchored core numbers."""

    @abstractmethod
    def plain_k_core(self, k: int) -> Set["Vertex"]:
        """The k-core of the snapshot with *no* anchors (anchor-independent)."""

    @abstractmethod
    def candidate_anchors(self, k: int, order_pruning: bool) -> Set["Vertex"]:
        """Theorem-3 candidate anchors under the current anchored state.

        The anchor set is the one established by the last :meth:`refresh`
        or :meth:`commit_anchor` (anchors carry core infinity there, which
        is what excludes them).  ``k`` must be the one the state is kept
        for.
        """

    @abstractmethod
    def non_core_vertices(self, k: int) -> Set["Vertex"]:
        """Every un-anchored vertex outside the anchored k-core.

        As with :meth:`candidate_anchors`, "un-anchored" refers to the
        anchor set of the last :meth:`refresh` or :meth:`commit_anchor`.
        """

    @abstractmethod
    def marginal_followers(
        self, k: int, candidate: "Vertex", full_shell: bool
    ) -> Tuple[Set["Vertex"], int]:
        """Followers gained by anchoring ``candidate`` next, plus visited count.

        The visited count must match the dict reference cascade exactly
        (region pops plus cascade removals) — it feeds the paper's
        instrumentation figures.
        """

    @abstractmethod
    def marginal_followers_with_region(
        self, k: int, candidate: "Vertex"
    ) -> Tuple[Set["Vertex"], int, FrozenSet["Vertex"]]:
        """Region-restricted follower cascade that also reports its region.

        Returns ``(gained, visited, region)`` where ``gained`` and
        ``visited`` are exactly what :meth:`marginal_followers` (with
        ``full_shell=False``) returns, and ``region`` is the explored
        shell-local region (the candidate excluded) — the read scope of the
        evaluation, which memoizing callers use to decide when a cached
        result is still valid: the result can only change when a commit's
        touched set intersects ``region ∪ {candidate}`` or their neighbours.
        """


class ExecutionBackend(ABC):
    """One execution layer for the anchored core index's kernels.

    Implementations are stateless (all state lives in the kernel handles they
    build), so :func:`repro.backends.get_backend` shares one instance of each
    process-wide.  A backend returned by :meth:`bound_to` holds only its
    maintainer.
    """

    #: Backend name; also what ``resolved_backend.name``-style introspection
    #: (e.g. ``AnchoredCoreIndex.backend``) reports.
    name: str = "abstract"

    @abstractmethod
    def build_core_index(self, graph: "Graph") -> CoreIndexKernel:
        """Build the anchored-core-index kernel for a frozen graph snapshot."""

    def bound_to(self, maintainer: "CoreMaintainer") -> "ExecutionBackend":
        """The backend to run solves over ``maintainer.graph`` with.

        A backend that builds a snapshot may return one bound to the
        maintainer, whose :meth:`build_core_index` gathers the snapshot of
        ``maintainer.graph`` from the maintainer's id space instead of
        interning the graph again, and whose index may read the maintained
        core numbers instead of peeling; it builds from the graph as usual
        for any other graph.  The snapshot is still built inside that call
        and lives only as long as its kernel.  The default returns the
        backend itself.
        """
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
