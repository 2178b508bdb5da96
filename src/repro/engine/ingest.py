"""Ingest buffer: batch and coalesce a live edge stream into deltas.

A production tracker does not pay a core-maintenance traversal per arriving
edge event.  The buffer absorbs raw insert/remove operations, keeps only the
*net* operation per edge (last writer wins, the same rule as
:meth:`EdgeDelta.merge`), and cancels pairs that provably cannot change the
live graph — an insert of an edge that is already present, a remove of an
absent one, or an insert→remove round trip on an edge the graph never had
between two vertices it already has.  A round trip whose insert would
create an endpoint is kept: the flushed delta carries the edge as both
inserted and removed, and since insertions apply first, the endpoint
appears exactly as the unbuffered events would have created it.
``flush()`` then hands one compact :class:`EdgeDelta` to the core maintainer.

Bad events are rejected at the door, before anything is buffered, so one can
never poison a later flush and take valid pending edges down with it: an
unhashable endpoint raises :class:`~repro.errors.ParameterError` on insert
and remove, and an inserted self-loop :class:`~repro.errors.SelfLoopError`.
Removing a self-loop is a counted no-op (the edge cannot exist).

Soundness of the cancellation rules rests on the engine's contract that the
graph only mutates through ``flush()``: between two flushes the graph the
buffer consults is exactly the graph the pending operations will be applied
to, so a no-op at buffering time is still a no-op at flush time.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Optional, Tuple

from repro.errors import SelfLoopError, require_hashable
from repro.graph.dynamic import EdgeDelta, _normalise_edge
from repro.graph.static import Graph, Vertex

#: Pending state of an insert→remove round trip that must still run: the
#: live graph lacks an endpoint, which the insert creates.
_ROUND_TRIP = 0


class IngestBuffer:
    """Accumulates edge operations and coalesces them into one delta.

    Parameters
    ----------
    graph:
        Optional live graph to consult for exact no-op cancellation.  Without
        it the buffer still coalesces opposing pairs down to the final
        operation per edge (which is always sound — see
        :meth:`repro.graph.dynamic.EdgeDelta.merge`).
    """

    def __init__(self, graph: Optional[Graph] = None) -> None:
        self._graph = graph
        self._pending: Dict[Tuple[Vertex, Vertex], int] = {}
        self.ingested = 0
        self.cancelled = 0

    # ------------------------------------------------------------------
    # Buffering
    # ------------------------------------------------------------------
    def insert(self, u: Vertex, v: Vertex) -> None:
        """Buffer the insertion of edge ``(u, v)``.

        Raises :class:`~repro.errors.ParameterError` for an unhashable
        endpoint and :class:`SelfLoopError` when ``u == v``, buffering
        nothing.
        """
        require_hashable("u", u)
        require_hashable("v", v)
        if u == v:
            raise SelfLoopError(u)
        self._offer(_normalise_edge((u, v)), 1)

    def remove(self, u: Vertex, v: Vertex) -> None:
        """Buffer the removal of edge ``(u, v)``; an unhashable endpoint raises
        :class:`~repro.errors.ParameterError`, buffering nothing."""
        require_hashable("u", u)
        require_hashable("v", v)
        self._offer(_normalise_edge((u, v)), -1)

    def extend(self, delta: EdgeDelta) -> None:
        """Buffer a whole delta (insertions first, matching ``delta.apply``).

        Every edge is checked before any is buffered, so a delta carrying an
        unhashable endpoint (:class:`~repro.errors.ParameterError`) or an
        inserted self-loop (:class:`SelfLoopError`) leaves the buffer
        untouched.
        """
        for u, v in chain(delta.inserted, delta.removed):
            require_hashable("u", u)
            require_hashable("v", v)
        for u, v in delta.inserted:
            if u == v:
                raise SelfLoopError(u)
        for u, v in delta.inserted:
            self.insert(u, v)
        for u, v in delta.removed:
            self.remove(u, v)

    def _offer(self, edge: Tuple[Vertex, Vertex], op: int) -> None:
        self.ingested += 1
        pending = self._pending.get(edge)
        if pending == _ROUND_TRIP:
            if op > 0:
                # insert→remove→insert nets to the insert alone.
                self._pending[edge] = op
                self.cancelled += 2
            else:
                self.cancelled += 1  # the round trip already ends absent
            return
        if pending == -op:
            # Opposing pair: the net effect is "edge ends up as `op` says".
            # If the live graph already agrees, both operations cancel,
            # unless the insert of an insert→remove pair creates an endpoint.
            graph = self._graph
            if graph is not None and graph.has_edge(*edge) == (op > 0):
                if op < 0 and not (graph.has_vertex(edge[0]) and graph.has_vertex(edge[1])):
                    self._pending[edge] = _ROUND_TRIP
                    return
                del self._pending[edge]
                self.cancelled += 2
                return
            self._pending[edge] = op
            return
        if pending == op:
            self.cancelled += 1  # duplicate of an already-pending operation
            return
        if self._graph is not None and self._graph.has_edge(*edge) == (op > 0):
            self.cancelled += 1  # no-op against the live graph
            return
        self._pending[edge] = op

    # ------------------------------------------------------------------
    # Views and draining
    # ------------------------------------------------------------------
    @property
    def pending_changes(self) -> int:
        """Number of net operations currently buffered."""
        return len(self._pending)

    def __len__(self) -> int:
        return len(self._pending)

    def is_empty(self) -> bool:
        """Return whether a flush would be a no-op."""
        return not self._pending

    def peek(self) -> EdgeDelta:
        """Return the coalesced delta without clearing the buffer."""
        # A round trip is in both lists; insertions apply first.
        return EdgeDelta.from_iterables(
            inserted=(edge for edge, op in self._pending.items() if op >= 0),
            removed=(edge for edge, op in self._pending.items() if op <= 0),
        )

    def flush(self) -> EdgeDelta:
        """Return the coalesced delta and reset the buffer."""
        delta = self.peek()
        self._pending.clear()
        return delta
