"""Backend registry and the ``"auto"`` resolution rule.

This module is the **single place** where backend selection policy lives.
Call sites everywhere else pass an opaque ``backend=`` value — a registered
name, ``"auto"``, or an :class:`~repro.backends.base.ExecutionBackend`
instance — to :func:`get_backend` and use whatever comes back.

Registration
------------
:func:`register_backend` associates a name with a zero-argument factory.
The two built-ins (dict, numpy) are registered by :mod:`repro.backends`
itself (with lazy factories, so importing the package never imports numpy);
third parties can register more::

    from repro.backends import ExecutionBackend, register_backend

    class RemoteBackend(ExecutionBackend):
        name = "remote"
        ...

    register_backend("remote", RemoteBackend)

After that every ``backend=`` kwarg in the library accepts ``"remote"``.
Import-gated backends pass ``is_available`` (the probe) and, optionally,
``availability_reason`` — a callable explaining *why* the probe currently
fails (missing import vs. env-disabled), surfaced by
:func:`backend_availability`, ``avt-bench backends`` and every
unavailable-backend error or warning.

The ``auto`` rule
-----------------
``"auto"`` resolves to the dict backend for one-shot work
(``workload="one-shot"``: a single O(n + m) pass such as
:func:`repro.cores.decomposition.k_core`, which can never amortise building
an interned snapshot) and whenever the numpy backend is unavailable;
otherwise, for amortised work at any graph size, it resolves to numpy.  The
graph size a caller passes is accepted but does not enter the rule: numpy
wins Greedy from about 1,000 vertices, and below that it loses well under a
millisecond per solve.  Registered custom backends are only used when named.

Explicit names bypass the rule; asking for a registered but unavailable
backend (e.g. ``"numpy"`` without numpy installed) raises
:class:`~repro.errors.ParameterError` naming the reason, and so does any
``backend=`` value that is neither a name nor an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Union

from repro.backends.base import (
    BACKEND_AUTO,
    BACKEND_DICT,
    BACKEND_NUMPY,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    ExecutionBackend,
)
from repro.errors import ParameterError

_WORKLOADS = (WORKLOAD_ONE_SHOT, WORKLOAD_AMORTIZED)


#: Fallback explanation when a probe fails without a reason provider.
_GENERIC_REASON = "a runtime dependency is missing"


@dataclass
class _BackendSpec:
    """Registry entry: how to build a backend and whether it can run here."""

    name: str
    factory: Callable[[], ExecutionBackend]
    is_available: Callable[[], bool] = field(default=lambda: True)
    availability_reason: Optional[Callable[[], Optional[str]]] = None

    def availability(self) -> Tuple[bool, Optional[str]]:
        """``(available, reason)``: the probe's verdict plus why it failed."""
        if self.is_available():
            return True, None
        reason = None
        if self.availability_reason is not None:
            reason = self.availability_reason()
        return False, reason if reason else _GENERIC_REASON


_REGISTRY: Dict[str, _BackendSpec] = {}
_INSTANCES: Dict[str, ExecutionBackend] = {}


def register_backend(
    name: str,
    factory: Callable[[], ExecutionBackend],
    *,
    is_available: Optional[Callable[[], bool]] = None,
    availability_reason: Optional[Callable[[], Optional[str]]] = None,
    replace: bool = False,
) -> None:
    """Register ``factory`` under ``name`` for every ``backend=`` kwarg.

    Parameters
    ----------
    factory:
        Zero-argument callable returning an :class:`ExecutionBackend`.
        Called at most once; the instance is cached process-wide.
    is_available:
        Optional probe called at resolution time — return ``False`` while a
        runtime dependency is missing and the backend is rejected (with an
        explanation) when requested by name.
    availability_reason:
        Optional companion to ``is_available``: return a one-line human
        explanation of *why* the backend is currently unavailable (e.g.
        ``"numpy is not installed"`` vs ``"disabled via REPRO_DISABLE_NUMPY"``)
        or ``None`` when it is available.  Surfaced by
        :func:`backend_availability`, the CLI and unavailable-backend errors.
    replace:
        Allow overwriting an existing registration (off by default so typos
        cannot silently shadow a built-in).
    """
    if name == BACKEND_AUTO:
        raise ParameterError(f'"{BACKEND_AUTO}" is reserved for the resolution policy')
    if not replace and name in _REGISTRY:
        raise ParameterError(f"backend {name!r} is already registered")
    _REGISTRY[name] = _BackendSpec(
        name=name,
        factory=factory,
        is_available=is_available if is_available is not None else (lambda: True),
        availability_reason=availability_reason,
    )
    _INSTANCES.pop(name, None)


def registered_backends() -> Tuple[str, ...]:
    """Every registered backend name (available or not), registration order."""
    return tuple(_REGISTRY)


def available_backends() -> Tuple[str, ...]:
    """Registered backends whose availability probe currently passes."""
    return tuple(name for name, spec in _REGISTRY.items() if spec.is_available())


def backend_availability() -> Dict[str, Optional[str]]:
    """Snapshot ``{name: None if available else reason}`` for every backend.

    The reason distinguishes *why* a backend is unavailable — a missing
    import (``"numpy is not installed"``) vs. an explicit environment switch
    (``"disabled via REPRO_DISABLE_NUMPY"``) — so the CLI and the engine's
    unavailable-backend warning can say so instead of a generic shrug.
    """
    report: Dict[str, Optional[str]] = {}
    for name, spec in _REGISTRY.items():
        _available, reason = spec.availability()
        report[name] = reason
    return report


def backend_info() -> Tuple[Dict[str, object], ...]:
    """One metadata row per registered backend, in registration order.

    Each row carries ``name``, ``available`` (the probe's current verdict)
    and ``reason`` (why the probe fails, ``None`` when available).  This is
    what the ``avt-bench backends`` CLI subcommand renders.
    """
    rows = []
    for name, spec in _REGISTRY.items():
        available, reason = spec.availability()
        rows.append({"name": name, "available": available, "reason": reason})
    return tuple(rows)


def resolve_backend(
    backend: Union[str, ExecutionBackend],
    num_vertices: int,
    *,
    workload: str = WORKLOAD_AMORTIZED,
) -> str:
    """Resolve a requested backend to a concrete registered *name*.

    Explicit names pass through (validated); ``"auto"`` follows the rule in
    the module docstring, which does not read ``num_vertices``.  Raises
    :class:`~repro.errors.ParameterError` on unknown names and on values
    that are neither a name nor an instance.
    """
    if isinstance(backend, ExecutionBackend):
        return backend.name
    if not isinstance(backend, str):
        raise ParameterError(
            "backend must be a registered name, 'auto' or an ExecutionBackend "
            f"instance, not {backend!r}"
        )
    if workload not in _WORKLOADS:
        raise ParameterError(
            f"unknown workload {workload!r}; expected one of {sorted(_WORKLOADS)}"
        )
    if backend != BACKEND_AUTO:
        if backend not in _REGISTRY:
            known = sorted((BACKEND_AUTO, *_REGISTRY))
            raise ParameterError(
                f"unknown backend {backend!r}; expected one of {known}"
            )
        return backend
    if workload == WORKLOAD_ONE_SHOT:
        return BACKEND_DICT
    return BACKEND_NUMPY if _REGISTRY[BACKEND_NUMPY].is_available() else BACKEND_DICT


def get_backend(
    backend: Union[str, ExecutionBackend],
    num_vertices: int = 0,
    *,
    workload: str = WORKLOAD_AMORTIZED,
) -> ExecutionBackend:
    """Return the :class:`ExecutionBackend` for a ``backend=`` kwarg value.

    Accepts a backend instance (returned as-is, so resolved backends can be
    re-threaded through ``backend=`` without a second resolution), a
    registered name, or ``"auto"``.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = resolve_backend(backend, num_vertices, workload=workload)
    # Probe availability on every call, not just the building one: a backend
    # can become unavailable after its instance was cached (e.g. the
    # REPRO_DISABLE_NUMPY switch flipping mid-process), and the contract is
    # that requesting it by name then fails loudly.
    spec = _REGISTRY[name]
    available, reason = spec.availability()
    if not available:
        raise ParameterError(
            f"backend {name!r} is registered but unavailable ({reason}); "
            f"available backends: {sorted(available_backends())}"
        )
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = spec.factory()
        _INSTANCES[name] = instance
    return instance
