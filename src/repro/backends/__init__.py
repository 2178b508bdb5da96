"""The two execution backends of the anchored core index, and how one is picked.

The public API of the library speaks hashable vertex ids over the
adjacency-set :class:`~repro.graph.static.Graph`.  *How* the kernels of
the anchored core index run — its capped build, follower cascades and
candidate scans — is delegated to an
:class:`~repro.backends.base.ExecutionBackend`:

``dict``
    The reference implementation straight over the adjacency-set graph.
    No setup cost, no translation; the only backend on an interpreter
    without numpy.
``numpy``
    The snapshot backend: kernels over an interned CSR snapshot
    (:class:`~repro.backends.numpy_backend.NumpyGraph`).  The capped index
    build, candidate scans and the whole-shell cascade are vectorised numpy
    passes; the region follower cascade and the commit risers stay
    pure Python over integer ids, where they are faster
    (:mod:`repro.backends.numpy_backend`).  Import-gated: the package works
    without numpy and this backend simply reports unavailable.

Both produce identical capped core numbers, identical follower sets and
identical instrumentation counts (``tests/test_backend_equivalence.py``).
Three kernels do not go through a backend: the full peel is one heap peel
over the adjacency-set graph
(:func:`repro.cores.decomposition.anchored_core_decomposition`), the
k-core is one deletion cascade over it
(:func:`repro.cores.decomposition.k_core_cascade`), and incremental core
maintenance (:mod:`repro.cores.maintenance`) runs one integer-id kernel
everywhere.

Selection
---------
Every ``backend=`` argument in the library takes one of :data:`BACKENDS`
(``"auto"``, ``"dict"``, ``"numpy"``) or an :class:`ExecutionBackend`
instance, which is used as given.  :func:`get_backend` turns the value into
a backend object.  It imports a backend's module the first time that backend
is asked for, so importing this package never imports numpy or the layers
the implementations build on.

``"auto"`` has one rule: numpy whenever numpy is available, at any graph
size, and dict otherwise.  numpy wins Greedy from about 1,000 vertices,
and below that it loses well under a millisecond per solve.  The rule is
applied in the running process: an engine checkpoint stores no backend,
and a restore runs on the ``backend=`` it is given (``"auto"`` by
default), as the constructor does.  Asking for ``"numpy"`` while it is
unavailable raises :class:`~repro.errors.ParameterError` naming the reason,
and so does any value that is neither a name in :data:`BACKENDS` nor an
instance.
"""

from __future__ import annotations

import importlib.util
from functools import lru_cache
from typing import Dict, Optional, Union

from repro.backends.base import (
    BACKEND_AUTO,
    BACKEND_DICT,
    BACKEND_NUMPY,
    BACKENDS,
    CoreIndexKernel,
    ExecutionBackend,
)
from repro.errors import ParameterError
from repro.obs.tracer import env_flag

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_DICT",
    "BACKEND_NUMPY",
    "BACKENDS",
    "CoreIndexKernel",
    "ExecutionBackend",
    "get_backend",
    "numpy_available",
    "numpy_unavailable_reason",
    "resolve_backend",
]

#: One shared instance per backend name, built on first use (backends keep
#: all state in the kernel handles they build).
_INSTANCES: Dict[str, ExecutionBackend] = {}


@lru_cache(maxsize=None)
def _numpy_installed() -> bool:
    """Whether numpy can be imported, probed once per process: the probe
    searches the import path, tens of microseconds a call."""
    return importlib.util.find_spec("numpy") is not None


def numpy_unavailable_reason() -> Optional[str]:
    """Why the numpy backend is currently unavailable (``None`` = it isn't).

    Distinguishes the explicit ``REPRO_DISABLE_NUMPY`` switch from a missing
    import so operators know whether to install or to un-set.  The switch is
    parsed like ``REPRO_TRACE``: only ``1``/``true``/``yes``/``on`` disable.
    It is read on every call; whether numpy is installed is probed once.
    """
    if env_flag("REPRO_DISABLE_NUMPY"):
        return "disabled via REPRO_DISABLE_NUMPY"
    if not _numpy_installed():
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


def resolve_backend(backend: Union[str, ExecutionBackend], num_vertices: int = 0) -> str:
    """The backend name a ``backend=`` value runs on.

    An instance gives its own name and ``"dict"``/``"numpy"`` pass through;
    ``"auto"`` is numpy when :func:`numpy_available`, else dict.
    ``num_vertices`` is unused (the rule does not read graph size); it
    stays only for callers that still pass it positionally.
    """
    if isinstance(backend, ExecutionBackend):
        return backend.name
    if not isinstance(backend, str) or backend not in BACKENDS:
        raise ParameterError(
            f"unknown backend {backend!r}; expected one of {sorted(BACKENDS)} "
            "or an ExecutionBackend instance"
        )
    if backend != BACKEND_AUTO:
        return backend
    return BACKEND_NUMPY if numpy_available() else BACKEND_DICT


def get_backend(
    backend: Union[str, ExecutionBackend], num_vertices: int = 0
) -> ExecutionBackend:
    """The :class:`ExecutionBackend` for a ``backend=`` value.

    An instance is returned as is, so a resolved backend can be passed on
    through ``backend=`` without a second resolution.  A name resolves as in
    :func:`resolve_backend` (``num_vertices`` is unused there too) to one
    process-wide instance.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    name = resolve_backend(backend)
    if name == BACKEND_NUMPY:
        # Checked on every call, not only when the instance is built: the
        # REPRO_DISABLE_NUMPY switch can be set after it was cached, and
        # asking for numpy by name must then fail loudly.
        reason = numpy_unavailable_reason()
        if reason is not None:
            raise ParameterError(
                f"backend 'numpy' is unavailable ({reason}); use 'dict' or 'auto'"
            )
    instance = _INSTANCES.get(name)
    if instance is None:
        if name == BACKEND_NUMPY:
            from repro.backends.numpy_backend import NumpyBackend as backend_class
        else:
            from repro.backends.dict_backend import DictBackend as backend_class
        instance = _INSTANCES[name] = backend_class()
    return instance
