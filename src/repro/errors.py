"""Exception hierarchy for the AVT reproduction library.

Every exception raised intentionally by this package derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised for invalid graph manipulations (unknown vertex, bad edge...)."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex absent from the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge absent from the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class SelfLoopError(GraphError):
    """Raised when a self-loop edge is added to an undirected simple graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"self-loop on vertex {vertex!r} is not allowed")
        self.vertex = vertex


class SnapshotError(ReproError):
    """Raised for invalid snapshot-sequence operations (bad index, empty...)."""


class ParameterError(ReproError):
    """Raised when an algorithm parameter is out of its valid range."""


class InvariantViolationError(ReproError):
    """Raised when an internal data-structure invariant check fails.

    :meth:`repro.cores.maintenance.CoreMaintainer.validate` raises it when
    one of the maintained stores (the id list or the level sets) disagrees
    with a fresh decomposition; failing loudly is preferable to returning
    wrong anchor sets.
    """


class DatasetError(ReproError):
    """Raised when a dataset file cannot be parsed or a name is unknown."""


class CheckpointError(ReproError):
    """Raised when an engine checkpoint cannot be written, read or verified."""


class CheckpointCorruptionError(CheckpointError):
    """Raised when a checkpoint section fails its digest or length check.

    ``section`` names the manifest section that failed verification (or
    ``"manifest"`` / ``"header"`` when the envelope itself is damaged), so
    operators know *what* was lost, not just that the file is bad.
    """

    def __init__(self, path: object, section: str, detail: str) -> None:
        super().__init__(f"checkpoint {path} is corrupted in section {section!r}: {detail}")
        self.path = path
        self.section = section


def require_int(name: str, value: object, minimum: int) -> None:
    """Raise :class:`ParameterError` unless ``value`` is an integer ``>= minimum``.

    The one check behind every public ``k`` and ``budget``: any
    :class:`numbers.Integral` (numpy integers included) is accepted, while a
    ``bool``, a float such as ``2.5``, a string or ``None`` fails here with
    a clear message instead of answering nonsense or escaping as a raw
    :class:`TypeError` deeper down.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise ParameterError(f"{name} must be {bound}")


def require_bool(name: str, value: object, allow_none: bool = False) -> None:
    """Raise :class:`ParameterError` unless ``value`` is ``True`` or ``False``.

    The one check behind every public on/off switch.  A truthy stand-in such
    as the string ``"no"`` or ``"false"`` would otherwise switch the option
    on; ``0`` and ``1`` are refused too, so a switch is never read from a
    number by accident.  ``allow_none`` admits ``None`` for switches where it
    means "use the default".
    """
    if value is None and allow_none:
        return
    if not isinstance(value, bool):
        expected = "True, False or None" if allow_none else "True or False"
        raise ParameterError(f"{name} must be {expected}, not {value!r}")


def require_hashable(name: str, value: object) -> None:
    """Raise :class:`ParameterError` unless ``value`` is hashable.

    The one check behind every anchor argument: a vertex must be hashable,
    and a list or a set passed as one fails here, naming the argument,
    instead of escaping as a raw :class:`TypeError` from a set or a lookup.
    """
    try:
        hash(value)
    except TypeError:
        raise ParameterError(f"{name}: a vertex must be hashable, not {value!r}") from None


def distinct_vertices(name: str, vertices: Iterable[object]) -> Tuple[object, ...]:
    """``vertices`` without repeats, first occurrence kept, each checked by
    :func:`require_hashable`.

    A value that cannot be iterated, such as a single vertex passed where a
    collection is expected, raises :class:`ParameterError` naming ``name``.
    """
    try:
        iterator = iter(vertices)
    except TypeError:
        raise ParameterError(
            f"{name} must be an iterable of vertices, not {vertices!r}"
        ) from None
    values = tuple(iterator)
    for value in values:
        require_hashable(name, value)
    return tuple(dict.fromkeys(values))
