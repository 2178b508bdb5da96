"""Pluggable execution backends for every hot kernel in the library.

The public API of the library speaks hashable vertex ids over the
adjacency-set :class:`~repro.graph.static.Graph`.  *How* the hot kernels run
— peeling decomposition, k-core cascades, K-order remaining degrees, the
follower cascades and candidate scans of the anchored core index, and the
incremental maintenance traversals — is delegated to an
:class:`~repro.backends.base.ExecutionBackend` looked up in a registry:

``dict``
    The reference implementation straight over the adjacency-set graph.
    No setup cost, no translation; fastest on small graphs.
``compact``
    Flat integer-array kernels over an interned CSR snapshot
    (:mod:`repro.graph.compact`); single-packed-int heap peeling.
``numpy``
    Vectorised kernels over the same ``VertexInterner``/CSR contract with
    numpy arrays (:mod:`repro.backends.numpy_backend`).  Import-gated: the
    package works without numpy and this backend simply reports unavailable.

All three produce identical core numbers, identical removal orders and
identical instrumentation counts (``tests/test_backend_equivalence.py``).
``backend="auto"`` — the default everywhere — resolves by graph size and
workload shape, and consults a **measured calibration table**
(:mod:`repro.backends.calibrate`, installed via ``load_calibration()`` or
``REPRO_CALIBRATION``) when one is active; the full policy is documented in
:mod:`repro.backends.registry`.  Custom backends plug in through
:func:`register_backend`.

The built-ins are registered here with lazy factories so that importing
:mod:`repro.backends` stays dependency-free and cycle-free: implementation
modules (which import the graph/cores/anchored layers) only load on first
use.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Optional

from repro.backends.base import (
    BACKEND_AUTO,
    BACKEND_COMPACT,
    BACKEND_DICT,
    BACKEND_NUMPY,
    BACKENDS,
    COMPACT_THRESHOLD,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    CoreIndexKernel,
    ExecutionBackend,
    MaintenanceKernel,
)
from repro.backends.calibrate import (
    CalibrationSpec,
    CalibrationTable,
    SizeBand,
    active_calibration,
    clear_calibration,
    load_calibration,
    run_calibration,
    set_calibration,
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

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_COMPACT",
    "BACKEND_DICT",
    "BACKEND_NUMPY",
    "BACKENDS",
    "COMPACT_THRESHOLD",
    "WORKLOAD_AMORTIZED",
    "WORKLOAD_ONE_SHOT",
    "CalibrationSpec",
    "CalibrationTable",
    "CoreIndexKernel",
    "ExecutionBackend",
    "MaintenanceKernel",
    "SizeBand",
    "active_calibration",
    "available_backends",
    "backend_availability",
    "backend_info",
    "clear_calibration",
    "get_backend",
    "load_calibration",
    "numpy_available",
    "numpy_unavailable_reason",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "run_calibration",
    "set_calibration",
]


def numpy_unavailable_reason() -> Optional[str]:
    """Why the numpy backend is currently unavailable (``None`` = it isn't).

    Distinguishes the explicit ``REPRO_DISABLE_NUMPY`` switch from a missing
    import so operators know whether to install or to un-set.
    """
    if os.environ.get("REPRO_DISABLE_NUMPY"):
        return "disabled via REPRO_DISABLE_NUMPY"
    if importlib.util.find_spec("numpy") is None:
        return "numpy is not installed"
    return None


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable.

    Setting ``REPRO_DISABLE_NUMPY=1`` forces this to report false even on an
    interpreter that has numpy — the supported way to exercise the no-numpy
    degradation path (auto falls back to compact, ``backend="numpy"`` is
    rejected with an explanation) without uninstalling anything.
    """
    return numpy_unavailable_reason() is None


def _make_dict_backend() -> ExecutionBackend:
    from repro.backends.dict_backend import DictBackend

    return DictBackend()


def _make_compact_backend() -> ExecutionBackend:
    from repro.backends.compact_backend import CompactBackend

    return CompactBackend()


def _make_numpy_backend() -> ExecutionBackend:
    from repro.backends.numpy_backend import NumpyBackend

    return NumpyBackend()


register_backend(BACKEND_DICT, _make_dict_backend, auto_priority=0)
register_backend(BACKEND_COMPACT, _make_compact_backend, auto_priority=10)
register_backend(
    BACKEND_NUMPY,
    _make_numpy_backend,
    auto_priority=20,
    is_available=numpy_available,
    availability_reason=numpy_unavailable_reason,
)
