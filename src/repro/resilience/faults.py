"""Deterministic, seedable fault injection for checkpoint persistence.

Production failures — a flush that fails on a full disk, a checkpoint
flipped on disk — are rare enough that their handling paths rot unless
something exercises them on demand.  This module is that something: a
:class:`FaultPlan` of injection points that the instrumented call sites
consult via :func:`fire`, costing one module-global ``None`` check when no
plan is armed.

Sites and actions
-----------------
Each :class:`FaultSpec` names a *site* (where the probe lives) and an
*action* (what happens when it fires).  A spec naming any other site is
rejected with :class:`~repro.errors.ParameterError`, so a typo cannot arm a
fault that never fires.

====================  ======================================================
site                  fired from
====================  ======================================================
``checkpoint.write``  :func:`repro.engine.checkpoint.write_state`, before
                      the atomic rename (``fail`` action simulates a flush
                      failure)
``checkpoint.bytes``  after a checkpoint file lands on disk (``corrupt``
                      action flips one byte, optionally inside a named
                      ``section=``)
====================  ======================================================

===========  ===============================================================
action       effect at the fire site
===========  ===============================================================
``error``    raise :class:`repro.errors.FaultError`
``corrupt``  no inline effect; the spec is returned so the site applies its
             own corruption (e.g. the checkpoint byte flip)
``fail``     no inline effect; the spec is returned so the site raises its
             own domain error (e.g. ``CheckpointError`` on write)
===========  ===============================================================

Determinism
-----------
Every spec keeps a hit counter; ``at=N`` fires on the N-th eligible hit,
``times=M`` caps the number of firings (default 1; ``times=0`` means
unlimited) and ``rate=p`` fires pseudo-randomly but *reproducibly* — the
decision hashes ``(seed, hit index)``, so the same plan against the same
workload fires at the same points every run.

Activation
----------
Programmatic: :func:`install_plan` / :func:`clear_plan`, or the
:func:`inject` context manager.  Environment: ``REPRO_FAULTS`` holds
``;``-separated specs of the form ``site:key=value,key=value`` where the
recognised keys are ``action``, ``at``, ``times``, ``rate`` and ``seed``
and **every other key becomes a context match filter**::

    REPRO_FAULTS="checkpoint.bytes:action=corrupt,section=core"
    REPRO_FAULTS="checkpoint.write:action=fail,at=2"

Every fired fault increments the ``resilience.faults_injected`` counter in
the global metrics registry (labelled by site and action), lands in the
flight-recorder ring as a synthetic event (visible even with tracing off)
and — when tracing is on — emits a ``fault.injected`` span.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union

from repro.errors import FaultError, ParameterError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "fire",
    "install_plan",
    "clear_plan",
    "active_plan",
    "inject",
    "parse_faults",
]

ACTION_ERROR = "error"
ACTION_CORRUPT = "corrupt"
ACTION_FAIL = "fail"
ACTIONS = (ACTION_ERROR, ACTION_CORRUPT, ACTION_FAIL)

#: Every instrumented call site (see the module docstring).
SITES = ("checkpoint.write", "checkpoint.bytes")

#: Reserved spec keys in the ``REPRO_FAULTS`` mini-language; everything else
#: is a context match filter.
_SPEC_KEYS = {"action", "at", "times", "rate", "seed"}


class FaultSpec:
    """One injection point: site + action + deterministic firing schedule."""

    __slots__ = ("site", "action", "match", "at", "times", "rate", "seed", "hits", "fired")

    def __init__(
        self,
        site: str,
        action: str = ACTION_ERROR,
        *,
        match: Optional[Dict[str, str]] = None,
        at: Optional[int] = None,
        times: int = 1,
        rate: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if site not in SITES:
            raise ParameterError(
                f"unknown fault site {site!r}; expected one of {list(SITES)}"
            )
        if action not in ACTIONS:
            raise ParameterError(
                f"unknown fault action {action!r}; expected one of {sorted(ACTIONS)}"
            )
        if at is not None and at < 1:
            raise ParameterError("fault 'at' must be >= 1 (1-based eligible hit)")
        if times < 0:
            raise ParameterError("fault 'times' must be >= 0 (0 = unlimited)")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ParameterError("fault 'rate' must be in [0, 1]")
        self.site = site
        self.action = action
        self.match = {str(k): str(v) for k, v in (match or {}).items()}
        self.at = at
        self.times = times
        self.rate = rate
        self.seed = seed
        self.hits = 0  # eligible (site+match) encounters
        self.fired = 0  # actual firings

    def matches(self, context: Dict[str, Any]) -> bool:
        for key, expected in self.match.items():
            if str(context.get(key)) != expected:
                return False
        return True

    def should_fire(self) -> bool:
        """Consume one eligible hit; report whether this one fires.

        Order of gates: the ``times`` cap is checked first (a spent spec
        never fires again), then ``at`` pins the firing to one specific hit,
        then ``rate`` makes a deterministic pseudo-random draw keyed on
        ``(seed, hit index)``.  With neither ``at`` nor ``rate`` every
        eligible hit fires (until ``times`` runs out).
        """
        self.hits += 1
        if self.times and self.fired >= self.times:
            return False
        if self.at is not None and self.hits != self.at:
            return False
        if self.rate is not None:
            draw = zlib.crc32(f"{self.seed}:{self.hits}".encode("ascii")) % 10_000
            if draw / 10_000.0 >= self.rate:
                return False
        self.fired += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        schedule = []
        if self.at is not None:
            schedule.append(f"at={self.at}")
        if self.rate is not None:
            schedule.append(f"rate={self.rate}")
        schedule.append(f"times={self.times or 'inf'}")
        return (
            f"FaultSpec({self.site}:{self.action} match={self.match} "
            f"{' '.join(schedule)} fired={self.fired}/{self.hits})"
        )


class FaultPlan:
    """An ordered list of :class:`FaultSpec`\\ s consulted by :func:`fire`."""

    def __init__(self, specs: Optional[List[FaultSpec]] = None) -> None:
        self.specs = list(specs or [])

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def fire(self, site: str, **context: Any) -> Optional[FaultSpec]:
        """Fire the first matching armed spec for ``site``; see :func:`fire`."""
        for spec in self.specs:
            if spec.site != site or not spec.matches(context):
                continue
            if not spec.should_fire():
                continue
            _record_fault(site, spec.action, spec, context)
            if spec.action == ACTION_ERROR:
                raise FaultError(site, f"{context}" if context else "")
            return spec  # corrupt / fail: the call site applies the effect
        return None

    def reset(self) -> None:
        """Zero every spec's counters (reuse one plan across test cases)."""
        for spec in self.specs:
            spec.hits = 0
            spec.fired = 0

    def total_fired(self) -> int:
        return sum(spec.fired for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.specs!r})"


def _record_fault(site: str, action: str, spec: FaultSpec, context: Dict[str, Any]) -> None:
    """Count + flight-record + span every firing (never let this throw)."""
    try:
        from repro.obs.metrics import global_registry

        global_registry().counter(
            "resilience.faults_injected", site=site, action=action
        ).inc()
    except Exception:  # pragma: no cover - diagnostics must not mask the fault
        pass
    try:
        from repro.obs import flight

        flight.default_recorder().record_event(
            "fault.injected", site=site, action=action, hit=spec.hits, **context
        )
    except Exception:  # pragma: no cover
        pass
    try:
        from repro.obs import tracer

        if tracer.enabled:
            with tracer.span("fault.injected", site=site, action=action):
                pass
    except Exception:  # pragma: no cover
        pass


# ---------------------------------------------------------------------------
# Plan activation: programmatic plan, else the REPRO_FAULTS environment.
# ---------------------------------------------------------------------------
_PLAN: Optional[FaultPlan] = None
#: Parsed-env cache: (raw REPRO_FAULTS string, parsed plan).  The plan object
#: is reused across fires so its hit counters persist within a process.
_ENV_CACHE: Optional[tuple] = None


def parse_faults(raw: str) -> FaultPlan:
    """Parse the ``REPRO_FAULTS`` mini-language into a :class:`FaultPlan`.

    ``;``-separated ``site:key=value,key=value`` specs; unknown keys become
    context match filters (see the module docstring).
    """
    plan = FaultPlan()
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, sep, body = chunk.partition(":")
        site = site.strip()
        if not site or not sep:
            raise ParameterError(
                f"REPRO_FAULTS spec {chunk!r} is not of the form site:key=value,..."
            )
        kwargs: Dict[str, Any] = {}
        match: Dict[str, str] = {}
        for pair in body.split(","):
            pair = pair.strip()
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep:
                raise ParameterError(f"REPRO_FAULTS entry {pair!r} is not key=value")
            key = key.strip()
            value = value.strip()
            if key in _SPEC_KEYS:
                kwargs[key] = value
            else:
                match[key] = value
        try:
            spec = FaultSpec(
                site,
                kwargs.get("action", ACTION_ERROR),
                match=match,
                at=int(kwargs["at"]) if "at" in kwargs else None,
                times=int(kwargs["times"]) if "times" in kwargs else 1,
                rate=float(kwargs["rate"]) if "rate" in kwargs else None,
                seed=int(kwargs["seed"]) if "seed" in kwargs else 0,
            )
        except ValueError as error:
            raise ParameterError(f"malformed REPRO_FAULTS spec {chunk!r}: {error}") from None
        plan.add(spec)
    return plan


def _as_plan(plan: Union[FaultPlan, FaultSpec, Iterable[FaultSpec]]) -> FaultPlan:
    if isinstance(plan, FaultPlan):
        return plan
    if isinstance(plan, FaultSpec):
        return FaultPlan([plan])
    return FaultPlan(list(plan))


def install_plan(plan: Union[FaultPlan, FaultSpec, Iterable[FaultSpec]]) -> FaultPlan:
    """Arm ``plan`` process-wide (overrides ``REPRO_FAULTS`` while armed).

    Accepts a :class:`FaultPlan`, a bare :class:`FaultSpec`, or an iterable
    of specs.
    """
    global _PLAN
    _PLAN = _as_plan(plan)
    return _PLAN


def clear_plan() -> None:
    """Disarm the programmatic plan (``REPRO_FAULTS`` takes over again)."""
    global _PLAN
    _PLAN = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan: the installed one, else a cached parse of ``REPRO_FAULTS``."""
    global _ENV_CACHE
    if _PLAN is not None:
        return _PLAN
    raw = os.environ.get("REPRO_FAULTS")
    if not raw:
        _ENV_CACHE = None
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, parse_faults(raw))
    return _ENV_CACHE[1]


@contextmanager
def inject(plan: Union[FaultPlan, FaultSpec, Iterable[FaultSpec]]) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of a ``with`` block (tests)."""
    global _PLAN
    previous = _PLAN
    armed = install_plan(plan)
    try:
        yield armed
    finally:
        _PLAN = previous


def fire(site: str, **context: Any) -> Optional[FaultSpec]:
    """Consult the armed plan at an injection site.

    Returns ``None`` when nothing fires (the overwhelmingly common case — a
    single ``is None`` + env check when no plan is armed).  The ``error``
    action takes effect inline; ``corrupt`` / ``fail`` return the fired spec
    so the site applies the domain-specific effect.
    """
    plan = active_plan()
    if plan is None:
        return None
    return plan.fire(site, **context)
