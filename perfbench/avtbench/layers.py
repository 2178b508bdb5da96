"""Traced-run harness: per-layer time from wrappers around public library calls.

:class:`LayerTracer` replaces each layer's public entry point with a timing
wrapper for the duration of a traced run and puts the original objects back
afterwards.  It deliberately does not use the library's own ``repro.obs``
spans: the benchmark must keep measuring the same boundaries when those spans
move or disappear.

Two traps the wrapping handles:

* ``compute_followers`` is bound by ``from``-import into several modules
  (``repro.avt.incremental``, ``repro.engine.engine``, the package
  re-exports), so every ``repro`` module attribute bound to the function
  object is patched, not only the defining module's.
* Layers nest (the ``AnchoredCoreIndex`` constructor calls
  ``build_core_index``).  Each wrapper keeps a frame on a stack, and a
  layer's self time is its inclusive time minus the inclusive time of the
  wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.followers import compute_followers
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.avt.incremental import IncAVTTracker
from repro.backends import BACKEND_AUTO, ExecutionBackend, get_backend
from repro.cores.maintenance import CoreMaintainer
from repro.engine.engine import StreamingAVTEngine


class LayerStats:
    """Accumulated calls, inclusive seconds, self seconds and work counters."""

    __slots__ = ("calls", "seconds", "self_seconds", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.counters: Dict[str, int] = {}

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def _count_effect(layer: LayerStats, effect: Any) -> None:
    layer.count("touched", len(effect.touched))
    layer.count("visited", effect.visited)


def _count_touched(layer: LayerStats, touched: Any) -> None:
    layer.count("touched", len(touched) if touched is not None else 0)


#: ``(layer, owner class, method names, result observer)``; the owner's
#: methods are the public calls into that layer.
METHOD_LAYERS: Tuple[Tuple[str, type, Tuple[str, ...], Optional[Callable]], ...] = (
    ("cores.maintainer_init", CoreMaintainer, ("__init__",), None),
    ("cores.apply_delta", CoreMaintainer, ("apply_delta",), _count_effect),
    ("anchored.index_build", AnchoredCoreIndex, ("__init__",), None),
    ("anchored.candidate_anchors", AnchoredCoreIndex, ("candidate_anchors",), None),
    ("anchored.evaluate", AnchoredCoreIndex, ("evaluate_candidate", "marginal_followers"), None),
    ("anchored.commit_anchor", AnchoredCoreIndex, ("commit_anchor",), _count_touched),
    ("anchored.greedy_select", GreedyAnchoredKCore, ("select",), None),
    ("avt.refresh_anchors", IncAVTTracker, ("refresh_anchors",), None),
    ("engine.ingest", StreamingAVTEngine, ("ingest_insert", "ingest_remove"), None),
    ("engine.flush", StreamingAVTEngine, ("flush",), None),
    ("engine.query", StreamingAVTEngine, ("query",), None),
    ("engine.checkpoint", StreamingAVTEngine, ("checkpoint",), None),
    ("engine.restore", StreamingAVTEngine, ("restore",), None),
)

#: Module-level functions, patched wherever a ``repro`` module binds them.
FUNCTION_LAYERS: Tuple[Tuple[str, Callable], ...] = (
    ("anchored.compute_followers", compute_followers),
)

#: Interning plus CSR build, on every loaded backend class that defines it.
BUILD_CORE_INDEX = "graph.build_core_index"

LAYER_NAMES: Tuple[str, ...] = (BUILD_CORE_INDEX,) + tuple(
    name for name, *_ in METHOD_LAYERS
) + tuple(name for name, _ in FUNCTION_LAYERS)


def _backend_classes() -> List[type]:
    """Every loaded backend class that defines its own ``build_core_index``.

    ``auto`` is resolved at both ends of the size threshold first, so the
    lazily imported backends it can pick are loaded before the walk.
    """
    get_backend(BACKEND_AUTO, 0)
    get_backend(BACKEND_AUTO, 1 << 30)
    found: List[type] = []
    pending = [ExecutionBackend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if cls is not ExecutionBackend and "build_core_index" in vars(cls):
            found.append(cls)
    return found


class LayerTracer:
    """Install timing wrappers on the layer entry points; remove them after.

    Use as a context manager.  While :attr:`active` is false (see
    :meth:`paused`) the wrappers call straight through, so the benchmark's
    own correctness checks are not attributed to any layer.
    """

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {name: LayerStats() for name in LAYER_NAMES}
        #: Inclusive seconds of wrapped calls made outside any other wrapped call.
        self.top_level_seconds = 0.0
        self.active = True
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    @contextmanager
    def paused(self) -> Iterator[None]:
        previous = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = previous

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for cls in _backend_classes():
            self._patch_attribute(cls, "build_core_index", BUILD_CORE_INDEX, None)
        for name, owner, methods, observe in METHOD_LAYERS:
            for method in methods:
                self._patch_attribute(owner, method, name, observe)
        for name, function in FUNCTION_LAYERS:
            wrapper = self._wrap(name, function, None)
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "") or ""
                if module_name != "repro" and not module_name.startswith("repro."):
                    continue
                for attribute, value in list(vars(module).items()):
                    if value is function:
                        self._patches.append((module, attribute, value))
                        setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def patched_targets(self) -> List[Tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` for every installed wrapper."""
        return list(self._patches)

    def _patch_attribute(self, owner: type, attribute: str, name: str, observe: Optional[Callable]) -> None:
        raw = vars(owner)[attribute]
        if isinstance(raw, (classmethod, staticmethod)):
            patched: Any = type(raw)(self._wrap(name, raw.__func__, observe))
        else:
            patched = self._wrap(name, raw, observe)
        self._patches.append((owner, attribute, raw))
        setattr(owner, attribute, patched)

    def _wrap(self, name: str, function: Callable, observe: Optional[Callable]) -> Callable:
        layer = self.layers[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return function(*args, **kwargs)
            stack.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                nested = stack.pop()
                layer.calls += 1
                layer.seconds += elapsed
                layer.self_seconds += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_seconds += elapsed
            if observe is not None:
                observe(layer, result)
            return result

        return wrapper
