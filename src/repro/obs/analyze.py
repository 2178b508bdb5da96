"""Trace analytics over finished spans: trees, critical paths, flamegraphs.

The tracer (:mod:`repro.obs.tracer`) and the JSON-lines exporter collect flat
span dicts; this module turns them back into something a human can diagnose:

* :func:`build_span_trees` — reconstruct the span forest from drained or
  JSONL-loaded span dicts (children sorted by start time, intervals derived
  from ``start``/``duration``).
* :func:`critical_path` — Dapper-style critical-path extraction: walking
  backwards from a root span's end, the child active at each instant is on
  the path and the gaps between children are the parent's own critical time.
  The step contributions sum to the root's wall time *by construction*, which
  is what makes the report trustworthy: nothing is double-counted across
  overlapping children.
* :func:`self_time_by_name` / :func:`flame_stacks` /
  :func:`render_collapsed` — per-span-name self-time aggregation and
  collapsed-stack output consumable by standard flamegraph tooling
  (``flamegraph.pl``, speedscope, inferno).
* :func:`diff_traces` — attribute the latency delta between two traces to
  span names (which phase got slower, which got faster).

Everything here is pure post-processing over span dicts — no tracer state is
touched, so it is safe to analyze a trace while another one is recording.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ParameterError

__all__ = [
    "SpanNode",
    "CriticalStep",
    "build_span_trees",
    "critical_path",
    "critical_path_by_name",
    "self_time_by_name",
    "flame_stacks",
    "render_collapsed",
    "render_tree",
    "diff_traces",
]

SpanDict = Dict[str, Any]

#: Interval-arithmetic tolerance (seconds).  Well below clock resolution;
#: keeps the backwards walk from emitting zero-width steps on float noise.
_EPS = 1e-12


class SpanNode:
    """One span in a reconstructed trace tree."""

    __slots__ = ("span", "children", "parent")

    def __init__(self, span: SpanDict) -> None:
        self.span = span
        self.children: List["SpanNode"] = []
        self.parent: Optional["SpanNode"] = None

    # -- span-field accessors ------------------------------------------
    @property
    def name(self) -> str:
        return self.span.get("name", "?")

    @property
    def span_id(self) -> Optional[str]:
        return self.span.get("span_id")

    @property
    def trace_id(self) -> Optional[str]:
        return self.span.get("trace_id")

    @property
    def attrs(self) -> Dict[str, Any]:
        return self.span.get("attrs") or {}

    @property
    def start(self) -> float:
        return float(self.span.get("start", 0.0))

    @property
    def duration(self) -> float:
        return float(self.span.get("duration", 0.0))

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def self_time(self) -> float:
        """Duration not covered by children (clamped at zero for async
        fan-out, where concurrent children can sum past the parent)."""
        covered = sum(child.duration for child in self.children)
        return max(0.0, self.duration - covered)

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first, children by start."""
        yield self
        for child in self.children:
            for node in child.walk():
                yield node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanNode({self.name!r}, {self.duration * 1e3:.3f}ms, children={len(self.children)})"


class CriticalStep(NamedTuple):
    """One entry on a critical path: a span and its on-path seconds."""

    node: SpanNode
    seconds: float


def build_span_trees(spans: Iterable[SpanDict]) -> List[SpanNode]:
    """Reconstruct the span forest from flat span dicts.

    Spans whose ``parent_id`` is absent from the set become roots.  Children
    and roots are sorted by start time.
    """
    nodes: List[SpanNode] = [SpanNode(entry) for entry in spans]
    by_id: Dict[str, SpanNode] = {}
    for node in nodes:
        span_id = node.span_id
        if span_id is not None:
            by_id[span_id] = node
    roots: List[SpanNode] = []
    for node in nodes:
        parent = by_id.get(node.span.get("parent_id"))
        if parent is None or parent is node:
            roots.append(node)
        else:
            node.parent = parent
            parent.children.append(node)
    for node in nodes:
        node.children.sort(key=lambda child: child.start)
    roots.sort(key=lambda root: root.start)
    return roots


def critical_path(root: SpanNode) -> List[CriticalStep]:
    """Extract the critical path through ``root``'s subtree.

    Walks backwards from the root's end: at every instant, the latest-ending
    child covering that instant is the blocking activity and joins the path
    (recursively); time not covered by any child is the parent's own critical
    time.  Concurrent children are handled naturally — a child fully
    shadowed by a later-ending sibling contributes nothing.

    Returns chronologically-ordered steps whose ``seconds`` sum to the root's
    wall time (consecutive steps for the same span are merged).
    """
    steps_reversed: List[Tuple[SpanNode, float]] = []

    def visit(node: SpanNode, window_start: float, window_end: float) -> None:
        cursor = window_end
        # Latest-ending child first: the backwards walk always asks "what was
        # running just before `cursor`?"
        for child in sorted(node.children, key=lambda entry: entry.end, reverse=True):
            child_end = min(child.end, cursor)
            child_start = max(child.start, window_start)
            if child_end - child_start <= _EPS:
                continue  # shadowed by a later-ending sibling, or clipped away
            if cursor - child_end > _EPS:
                steps_reversed.append((node, cursor - child_end))  # parent gap
            visit(child, child_start, child_end)
            cursor = child_start
            if cursor - window_start <= _EPS:
                break
        if cursor - window_start > _EPS:
            steps_reversed.append((node, cursor - window_start))

    visit(root, root.start, root.end)

    merged: List[CriticalStep] = []
    for node, seconds in reversed(steps_reversed):
        if merged and merged[-1].node is node:
            merged[-1] = CriticalStep(node, merged[-1].seconds + seconds)
        else:
            merged.append(CriticalStep(node, seconds))
    return merged


def critical_path_by_name(steps: Iterable[CriticalStep]) -> Dict[str, float]:
    """Aggregate critical-path seconds per span name."""
    totals: Dict[str, float] = {}
    for step in steps:
        totals[step.node.name] = totals.get(step.node.name, 0.0) + step.seconds
    return totals


def self_time_by_name(spans: Iterable[SpanDict]) -> Dict[str, Dict[str, float]]:
    """Per-span-name aggregation: count, total wall and self time."""
    totals: Dict[str, Dict[str, float]] = {}
    for root in build_span_trees(spans):
        for node in root.walk():
            entry = totals.setdefault(
                node.name, {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0}
            )
            entry["count"] += 1
            entry["total_seconds"] += node.duration
            entry["self_seconds"] += node.self_time
    return totals


def flame_stacks(spans: Iterable[SpanDict]) -> Dict[str, float]:
    """Self-time per span-name stack — the flamegraph aggregation.

    Keys are semicolon-joined name paths from the root (``a;b;c``), values
    are self-time seconds summed over every occurrence of that path.
    """
    totals: Dict[str, float] = {}

    def walk(node: SpanNode, prefix: str) -> None:
        path = f"{prefix};{node.name}" if prefix else node.name
        self_seconds = node.self_time
        if self_seconds > 0.0:
            totals[path] = totals.get(path, 0.0) + self_seconds
        for child in node.children:
            walk(child, path)

    for root in build_span_trees(spans):
        walk(root, "")
    return totals


def render_collapsed(totals: Dict[str, float], unit: float = 1e6) -> str:
    """Collapsed-stack text (``stack value`` lines, value in µs by default).

    The format every standard flamegraph renderer consumes; integer weights,
    zero-weight stacks skipped, stacks sorted for deterministic output.
    """
    lines = []
    for path in sorted(totals):
        weight = int(round(totals[path] * unit))
        if weight > 0:
            lines.append(f"{path} {weight}")
    return "\n".join(lines)


def render_tree(
    roots: Iterable[SpanNode],
    *,
    max_depth: Optional[int] = None,
    min_duration: float = 0.0,
) -> str:
    """Indented text rendering of span trees (durations in ms, attrs inline)."""
    lines: List[str] = []

    def walk(node: SpanNode, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        if node.duration < min_duration and depth > 0:
            return
        attrs = node.attrs
        suffix = ""
        if attrs:
            rendered = ", ".join(f"{key}={attrs[key]!r}" for key in sorted(attrs))
            suffix = f"  [{rendered}]"
        lines.append(f"{'  ' * depth}{node.name}  {node.duration * 1e3:.3f}ms{suffix}")
        for child in node.children:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def diff_traces(
    spans_a: Iterable[SpanDict], spans_b: Iterable[SpanDict]
) -> Dict[str, Any]:
    """Attribute the latency delta between two traces to span names.

    Compares per-name self-time totals (where the time was actually spent,
    not double-counted through parents).  ``delta_seconds > 0`` means the
    name got slower from A to B.  Entries are sorted by absolute delta.
    """
    totals_a = self_time_by_name(spans_a)
    totals_b = self_time_by_name(spans_b)
    names = sorted(set(totals_a) | set(totals_b))
    if not names:
        raise ParameterError("diff_traces needs at least one span on either side")
    by_name = []
    for name in names:
        self_a = totals_a.get(name, {}).get("self_seconds", 0.0)
        self_b = totals_b.get(name, {}).get("self_seconds", 0.0)
        by_name.append(
            {
                "name": name,
                "self_seconds_a": self_a,
                "self_seconds_b": self_b,
                "count_a": int(totals_a.get(name, {}).get("count", 0)),
                "count_b": int(totals_b.get(name, {}).get("count", 0)),
                "delta_seconds": self_b - self_a,
            }
        )
    by_name.sort(key=lambda entry: abs(entry["delta_seconds"]), reverse=True)
    total_a = sum(entry["self_seconds_a"] for entry in by_name)
    total_b = sum(entry["self_seconds_b"] for entry in by_name)
    return {
        "total_self_seconds_a": total_a,
        "total_self_seconds_b": total_b,
        "delta_seconds": total_b - total_a,
        "by_name": by_name,
    }
