"""Hierarchical tracing with a near-zero-overhead disabled path.

Usage at an instrumentation site::

    from repro.obs import tracer

    with tracer.span("engine.query", k=k, budget=budget) as sp:
        ...
        sp.set(outcome="hit")

When tracing is disabled (the default), :func:`span` performs a single
module-level flag check and returns a shared no-op singleton — no span object
is allocated and nothing is recorded, so instrumentation can stay inline in
hot paths.  Enable tracing with :func:`set_enabled` (or the ``REPRO_TRACE``
environment variable, honoured at import so CI jobs inherit it).

Finished spans are appended to a bounded in-process buffer (and fanned out to
any registered sinks, e.g. the JSON-lines exporter).  Span ids embed the
process id, so spans from different processes never collide.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import global_registry

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "current_trace_id",
    "drain",
    "add_sink",
    "remove_sink",
    "enabled",
    "set_enabled",
    "is_enabled",
    "env_flag",
]

logger = logging.getLogger("repro.obs")

SpanDict = Dict[str, Any]
Sink = Callable[[SpanDict], None]

#: Finished spans kept in the buffer before new ones are dropped (counted).
MAX_BUFFERED_SPANS = 50_000


def env_flag(name: str) -> bool:
    """Whether environment variable ``name`` is switched on.

    Only ``1``, ``true``, ``yes`` and ``on`` (any case, surrounding blanks
    ignored) count; unset, empty, ``0``, ``false`` and anything else are off.
    """
    return os.environ.get(name, "").strip().lower() in {"1", "true", "yes", "on"}


#: Module-level enablement flag — THE single check on the disabled fast path.
#: Reassigned by :func:`set_enabled`; read directly by :func:`span`.
enabled: bool = env_flag("REPRO_TRACE")

#: Per-thread open-span stacks, keyed by thread ident.  All accesses are
#: single dict/list ops, atomic under the GIL.  Entries are removed when a
#: thread's outermost span exits, so the dict does not grow with thread
#: churn.
_STACKS: Dict[int, List["Span"]] = {}
_id_lock = threading.Lock()
_id_state = {"pid": os.getpid(), "next": 1}


def _next_span_id() -> str:
    """Process-unique span id; pid-prefixed so ids never collide across processes."""
    with _id_lock:
        pid = os.getpid()
        if pid != _id_state["pid"]:  # forked child inherited our counter
            _id_state["pid"] = pid
            _id_state["next"] = 1
        seq = _id_state["next"]
        _id_state["next"] = seq + 1
    return f"{pid:x}-{seq:x}"


def _stack() -> List["Span"]:
    ident = threading.get_ident()
    stack = _STACKS.get(ident)
    if stack is None:
        stack = _STACKS[ident] = []
    return stack


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NOOP = _NoopSpan()


class Span:
    """One timed, attributed region of work; records itself on ``__exit__``."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "attrs",
        "start",
        "duration",
        "_tracer",
        "_perf_start",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = _next_span_id()
        self.parent_id: Optional[str] = None
        self.trace_id = self.span_id  # overwritten on __enter__ if nested
        self.start = 0.0
        self.duration = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach or overwrite attributes (e.g. the outcome, sizes, counts)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        stack.append(self)
        self.start = time.time()
        self._perf_start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration = time.perf_counter() - self._perf_start
        stack = _stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # pragma: no cover - unbalanced exit safety net
            stack.remove(self)
        if not stack:
            _STACKS.pop(threading.get_ident(), None)
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._record(self.to_dict())
        return False

    def to_dict(self) -> SpanDict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects finished spans into a bounded buffer and fans out to sinks."""

    def __init__(self, max_buffered: int = MAX_BUFFERED_SPANS) -> None:
        self.max_buffered = max_buffered
        self._buffer: List[SpanDict] = []
        self._sinks: List[Sink] = []
        registry = global_registry()
        self._recorded = registry.counter("obs.spans_recorded")
        self._dropped = registry.counter("obs.spans_dropped")
        self._drop_warned = False

    def span(self, name: str, **attrs: Any):
        """Start a span (context manager).  No-op singleton while disabled."""
        if not enabled:
            return _NOOP
        return Span(self, name, attrs)

    def _record(self, span_dict: SpanDict) -> None:
        self._recorded.inc()
        if len(self._buffer) < self.max_buffered:
            self._buffer.append(span_dict)
        else:
            self._dropped.inc()
            if not self._drop_warned:
                self._drop_warned = True
                logger.warning(
                    "span buffer full (max_buffered=%d); dropping further spans "
                    "until drain() — attach a streaming sink for long runs "
                    "(obs.spans_dropped counts the loss)",
                    self.max_buffered,
                )
        for sink in self._sinks:
            sink(span_dict)

    def drain(self) -> List[SpanDict]:
        """Return all buffered spans and clear the buffer."""
        spans, self._buffer = self._buffer, []
        self._drop_warned = False
        return spans

    def add_sink(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)


_DEFAULT = Tracer()


def span(name: str, **attrs: Any):
    """Start a span on the default tracer (module-level fast path)."""
    if not enabled:
        return _NOOP
    return Span(_DEFAULT, name, attrs)


def current_span() -> Optional[Span]:
    """The innermost open span on this thread, or None."""
    stack = _STACKS.get(threading.get_ident())
    return stack[-1] if stack else None


def current_trace_id() -> Optional[str]:
    """Trace id of this thread's innermost open span, or None.

    Cheap enough for hot paths even while tracing is disabled (one dict
    lookup); used to attach trace-id exemplars to latency histograms.
    """
    stack = _STACKS.get(threading.get_ident())
    return stack[-1].trace_id if stack else None


def drain() -> List[SpanDict]:
    return _DEFAULT.drain()


def add_sink(sink: Sink) -> None:
    _DEFAULT.add_sink(sink)


def remove_sink(sink: Sink) -> None:
    _DEFAULT.remove_sink(sink)


def set_enabled(flag: bool) -> bool:
    """Turn tracing on/off; returns the previous state (for restore)."""
    global enabled
    previous = enabled
    enabled = bool(flag)
    return previous


def is_enabled() -> bool:
    return enabled
