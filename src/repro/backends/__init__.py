"""Pluggable execution backends for every hot kernel in the library.

The public API of the library speaks hashable vertex ids over the
adjacency-set :class:`~repro.graph.static.Graph`.  *How* the hot kernels run
— peeling decomposition, k-core cascades, K-order remaining degrees, and the
follower cascades and candidate scans of the anchored core index — is
delegated to an :class:`~repro.backends.base.ExecutionBackend` looked up in a
registry:

``dict``
    The reference implementation straight over the adjacency-set graph.
    No setup cost, no translation; the backend for one-shot cascades and
    the only backend on an interpreter without numpy.
``numpy``
    The snapshot backend: kernels over an interned CSR snapshot
    (:mod:`repro.graph.compact`).  Full peels, k-core cascades, the capped
    index build, candidate scans and the whole-shell cascade are vectorised
    numpy passes; the region follower cascade and the commit risers stay
    pure Python over integer ids, where they are faster
    (:mod:`repro.backends.numpy_backend`).  Import-gated: the package works
    without numpy and this backend simply reports unavailable.

Both produce identical core numbers, identical removal orders and identical
instrumentation counts (``tests/test_backend_equivalence.py``).
``backend="auto"`` — the default everywhere — picks dict for one-shot work
or without numpy, and numpy for amortised work at any graph size
(:mod:`repro.backends.registry`).  Custom backends plug in through
:func:`register_backend` and are used when named.  Incremental core
maintenance does not go through a backend: :mod:`repro.cores.maintenance`
runs one integer-id kernel everywhere.

The built-ins are registered here with lazy factories so that importing
:mod:`repro.backends` stays dependency-free and cycle-free: implementation
modules (which import the graph/cores/anchored layers) only load on first
use.
"""

from __future__ import annotations

import importlib.util
from typing import Optional

from repro.backends.base import (
    BACKEND_AUTO,
    BACKEND_DICT,
    BACKEND_NUMPY,
    BACKENDS,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    CoreIndexKernel,
    ExecutionBackend,
)
from repro.backends.registry import (
    available_backends,
    backend_availability,
    backend_info,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.obs.tracer import env_flag

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_DICT",
    "BACKEND_NUMPY",
    "BACKENDS",
    "WORKLOAD_AMORTIZED",
    "WORKLOAD_ONE_SHOT",
    "CoreIndexKernel",
    "ExecutionBackend",
    "available_backends",
    "backend_availability",
    "backend_info",
    "get_backend",
    "numpy_available",
    "numpy_unavailable_reason",
    "register_backend",
    "registered_backends",
    "resolve_backend",
]


def numpy_unavailable_reason() -> Optional[str]:
    """Why the numpy backend is currently unavailable (``None`` = it isn't).

    Distinguishes the explicit ``REPRO_DISABLE_NUMPY`` switch from a missing
    import so operators know whether to install or to un-set.  The switch is
    parsed like ``REPRO_TRACE``: only ``1``/``true``/``yes``/``on`` disable.
    """
    if env_flag("REPRO_DISABLE_NUMPY"):
        return "disabled via REPRO_DISABLE_NUMPY"
    if importlib.util.find_spec("numpy") is None:
        return "numpy is not installed"
    return None


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable.

    Setting ``REPRO_DISABLE_NUMPY=1`` forces this to report false even on an
    interpreter that has numpy — the supported way to exercise the no-numpy
    path (``auto`` runs everything on dict, ``backend="numpy"`` is rejected
    with an explanation) without uninstalling anything.
    """
    return numpy_unavailable_reason() is None


def _make_dict_backend() -> ExecutionBackend:
    from repro.backends.dict_backend import DictBackend

    return DictBackend()


def _make_numpy_backend() -> ExecutionBackend:
    from repro.backends.numpy_backend import NumpyBackend

    return NumpyBackend()


register_backend(BACKEND_DICT, _make_dict_backend)
register_backend(
    BACKEND_NUMPY,
    _make_numpy_backend,
    is_available=numpy_available,
    availability_reason=numpy_unavailable_reason,
)
