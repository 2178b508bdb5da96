"""Measured backend selection: calibration sweeps behind the ``"auto"`` policy.

The registry's hard-coded ``auto_priority`` ladder encodes an *expectation*
(numpy > compact > dict on large amortised workloads); this module
replaces the expectation with a **measurement**.  :func:`run_calibration`
executes a small declarative sweep grid — graph-size bands × workload shapes
× available backends, with repetitions — and records the per-kernel timings
plus the measured winner of every band into a :class:`CalibrationTable`.

The table is plain JSON: persist it with :meth:`CalibrationTable.save`, load
it explicitly with :func:`load_calibration`, or point the
``REPRO_CALIBRATION`` environment variable at a saved file and every process
picks it up lazily.  While a table is active,
:func:`repro.backends.registry.resolve_backend` answers ``"auto"`` for
amortised workloads from the measured winner of the band containing the
graph — the priority ladder remains the fallback for uncalibrated sizes,
winners that have since become unavailable, and processes with no table.
One-shot workloads keep resolving to the dict backend unconditionally: a
single cascade can never amortise snapshot construction, so there is nothing
to measure.

Layering: this module's import surface is :mod:`repro.backends.base` only
(the registry imports it), so graph generators and backend instances are
imported inside :func:`run_calibration` — the same laziness discipline as
the backend factories.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.backends.base import BACKEND_COMPACT, BACKEND_DICT, BACKEND_NUMPY
from repro.errors import ParameterError

_LOG = logging.getLogger(__name__)

#: Environment variable naming a saved calibration table to load lazily.
CALIBRATION_ENV = "REPRO_CALIBRATION"

#: Workload shapes the sweep can time (see the ``_WORKLOAD_RUNNERS`` table).
WORKLOAD_PEEL = "peel"
WORKLOAD_CORE_INDEX = "core_index"
WORKLOAD_MAINTENANCE = "maintenance"
DEFAULT_WORKLOADS = (WORKLOAD_PEEL, WORKLOAD_CORE_INDEX, WORKLOAD_MAINTENANCE)

#: Candidate backends ``auto`` may pick from.
DEFAULT_CANDIDATES = (BACKEND_DICT, BACKEND_COMPACT, BACKEND_NUMPY)


@dataclass(frozen=True)
class SizeBand:
    """One row of the sweep grid: a vertex-count interval and its sample size.

    ``lo`` is inclusive, ``hi`` exclusive (``None`` = unbounded);
    ``sample_vertices`` is the synthetic-graph size the band is measured at.
    """

    name: str
    lo: int
    hi: Optional[int]
    sample_vertices: int

    def contains(self, num_vertices: int) -> bool:
        return num_vertices >= self.lo and (self.hi is None or num_vertices < self.hi)


#: The default grid: one band below the compact threshold, one in the
#: translation-pays-off midrange, one at bench scale.
DEFAULT_BANDS: Tuple[SizeBand, ...] = (
    SizeBand("small", 0, 4096, 1024),
    SizeBand("medium", 4096, 32768, 8192),
    SizeBand("large", 32768, None, 40000),
)


@dataclass(frozen=True)
class CalibrationSpec:
    """Declarative description of one calibration sweep."""

    bands: Tuple[SizeBand, ...] = DEFAULT_BANDS
    workloads: Tuple[str, ...] = DEFAULT_WORKLOADS
    repetitions: int = 3
    edges_per_vertex: float = 4.0
    seed: int = 20240131
    candidates: Tuple[str, ...] = DEFAULT_CANDIDATES

    def scaled(self, max_vertices: int) -> "CalibrationSpec":
        """A copy with every band's sample size capped (smoke/CI sweeps)."""
        bands = tuple(
            SizeBand(band.name, band.lo, band.hi, min(band.sample_vertices, max_vertices))
            for band in self.bands
        )
        return CalibrationSpec(
            bands=bands,
            workloads=self.workloads,
            repetitions=self.repetitions,
            edges_per_vertex=self.edges_per_vertex,
            seed=self.seed,
            candidates=self.candidates,
        )


class CalibrationTable:
    """Measured winners per size band, with the raw per-kernel timings.

    ``bands`` is an ordered list of JSON-friendly dicts::

        {"name": "large", "lo": 32768, "hi": null, "sample_vertices": 40000,
         "winner": "numpy",
         "timings": {"numpy": {"peel": 0.012, ...}, "compact": {...}, ...}}
    """

    VERSION = 1

    def __init__(self, bands: Iterable[Mapping[str, object]]) -> None:
        self.bands: List[Dict[str, object]] = [dict(band) for band in bands]

    def winner_for(
        self, num_vertices: int, available: Optional[Iterable[str]] = None
    ) -> Optional[str]:
        """The measured winner of the band containing ``num_vertices``.

        Returns ``None`` when no band covers the size or the winner is not in
        ``available`` (the caller then falls back to the priority ladder).
        """
        allowed: Optional[Set[str]] = None if available is None else set(available)
        for band in self.bands:
            lo = int(band.get("lo", 0))
            hi = band.get("hi")
            if num_vertices < lo:
                continue
            if hi is not None and num_vertices >= int(hi):
                continue
            winner = band.get("winner")
            if winner is None:
                return None
            winner = str(winner)
            if allowed is not None and winner not in allowed:
                return None
            return winner
        return None

    def band_names(self) -> Tuple[str, ...]:
        return tuple(str(band.get("name", "")) for band in self.bands)

    # -- persistence ---------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        return {"calibration_version": self.VERSION, "bands": self.bands}

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "CalibrationTable":
        version = payload.get("calibration_version")
        if version != cls.VERSION:
            raise ParameterError(
                f"unsupported calibration table version {version!r} "
                f"(this build reads version {cls.VERSION})"
            )
        bands = payload.get("bands")
        if not isinstance(bands, list):
            raise ParameterError("calibration table has no 'bands' list")
        return cls(bands)

    def save(self, path) -> None:
        Path(path).write_text(
            json.dumps(self.to_payload(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path) -> "CalibrationTable":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as error:
            raise ParameterError(f"cannot read calibration table {path!r}: {error}")
        except ValueError as error:
            raise ParameterError(f"calibration table {path!r} is not JSON: {error}")
        return cls.from_payload(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        winners = {band.get("name"): band.get("winner") for band in self.bands}
        return f"<CalibrationTable winners={winners!r}>"


# ---------------------------------------------------------------------------
# The active table (explicit > environment > none)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[CalibrationTable] = None
_ENV_ATTEMPTED = False


def set_calibration(table: Optional[CalibrationTable]) -> None:
    """Install ``table`` as the process-wide active calibration (or clear it)."""
    global _ACTIVE
    if table is None:
        clear_calibration()
        return
    _ACTIVE = table


def clear_calibration() -> None:
    """Drop the active table and re-arm the ``REPRO_CALIBRATION`` lazy load."""
    global _ACTIVE, _ENV_ATTEMPTED
    _ACTIVE = None
    _ENV_ATTEMPTED = False


def load_calibration(path) -> CalibrationTable:
    """Load a saved table from ``path`` and install it as active."""
    table = CalibrationTable.load(path)
    set_calibration(table)
    return table


def active_calibration() -> Optional[CalibrationTable]:
    """The table ``"auto"`` currently consults, if any.

    An explicitly installed table wins; otherwise the first call lazily loads
    the file named by ``REPRO_CALIBRATION`` (an unreadable file logs one
    warning and the policy falls back to the priority ladder).
    """
    global _ACTIVE, _ENV_ATTEMPTED
    if _ACTIVE is not None:
        return _ACTIVE
    if not _ENV_ATTEMPTED:
        _ENV_ATTEMPTED = True
        path = os.environ.get(CALIBRATION_ENV)
        if path:
            try:
                _ACTIVE = CalibrationTable.load(path)
            except ParameterError as error:
                _LOG.warning("ignoring %s=%r: %s", CALIBRATION_ENV, path, error)
    return _ACTIVE


# ---------------------------------------------------------------------------
# Workload runners (one timed unit of amortised work each)
# ---------------------------------------------------------------------------
def _run_peel(backend, graph) -> None:
    backend.decompose(graph)


def _run_core_index(backend, graph) -> None:
    kernel = backend.build_core_index(graph)
    k = 3
    kernel.refresh(set(), k)
    candidates = sorted(kernel.candidate_anchors(k, True))
    step = max(1, len(candidates) // 8)
    for candidate in candidates[::step][:8]:
        kernel.marginal_followers(k, candidate, False)


def _run_maintenance(backend, graph) -> None:
    decomposition = backend.decompose(graph)
    core = {vertex: int(value) for vertex, value in decomposition.core.items()}
    kernel = backend.build_maintenance(graph, core)
    flipped = 0
    for u, v in graph.edges():
        kernel.remove_edge(u, v)
        kernel.process_deletion(u, v)
        kernel.add_edge(u, v)
        kernel.process_insertion(u, v)
        flipped += 1
        if flipped >= 16:
            break


_WORKLOAD_RUNNERS = {
    WORKLOAD_PEEL: _run_peel,
    WORKLOAD_CORE_INDEX: _run_core_index,
    WORKLOAD_MAINTENANCE: _run_maintenance,
}


def run_calibration(
    spec: CalibrationSpec = CalibrationSpec(), *, install: bool = False
) -> CalibrationTable:
    """Execute the sweep grid and return the resulting table.

    Every band is measured on one synthetic Chung–Lu graph (heavy-tailed
    degrees, graded core structure) at the band's sample size; every
    available candidate backend runs every workload shape ``repetitions``
    times and the minimum is recorded (the usual best-of-N timing discipline).
    The band winner minimises the summed per-workload minima.  Unavailable
    candidates are skipped — their absence is visible in the table because
    their timings are simply missing.  ``install=True`` additionally makes
    the new table the active one.
    """
    from repro.backends.registry import available_backends, get_backend
    from repro.graph.generators import chung_lu_graph

    unknown = [name for name in spec.workloads if name not in _WORKLOAD_RUNNERS]
    if unknown:
        raise ParameterError(
            f"unknown calibration workloads {unknown!r}; "
            f"expected a subset of {sorted(_WORKLOAD_RUNNERS)}"
        )
    if spec.repetitions < 1:
        raise ParameterError("repetitions must be >= 1")
    available = set(available_backends())
    bands: List[Dict[str, object]] = []
    for band in spec.bands:
        num_vertices = max(2, band.sample_vertices)
        num_edges = int(num_vertices * spec.edges_per_vertex)
        max_edges = num_vertices * (num_vertices - 1) // 2
        graph = chung_lu_graph(num_vertices, min(num_edges, max_edges), seed=spec.seed)
        timings: Dict[str, Dict[str, float]] = {}
        for name in spec.candidates:
            if name not in available:
                continue
            backend = get_backend(name)
            per_workload: Dict[str, float] = {}
            for workload in spec.workloads:
                runner = _WORKLOAD_RUNNERS[workload]
                best = float("inf")
                for _ in range(spec.repetitions):
                    started = time.perf_counter()
                    runner(backend, graph)
                    best = min(best, time.perf_counter() - started)
                per_workload[workload] = best
            timings[name] = per_workload
        winner = None
        if timings:
            winner = min(timings, key=lambda name: sum(timings[name].values()))
        bands.append(
            {
                "name": band.name,
                "lo": band.lo,
                "hi": band.hi,
                "sample_vertices": num_vertices,
                "sample_edges": graph.num_edges,
                "winner": winner,
                "timings": timings,
            }
        )
    table = CalibrationTable(bands)
    if install:
        set_calibration(table)
    return table
