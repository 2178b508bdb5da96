"""Measured backend selection: calibrate once, let ``backend="auto"`` follow.

The registry's default ``auto`` policy ranks backends by a hard-coded
priority ladder (numpy > compact > dict on large amortised workloads).
That ladder encodes an *expectation*; this example replaces it with a
*measurement* on the machine actually running the workload:

1. sweep every available backend over size bands and workload shapes
   (:func:`repro.backends.run_calibration` — the same sweep as
   ``avt-bench calibrate``);
2. persist the winners as a JSON calibration table;
3. load the table (here via :func:`repro.backends.load_calibration`; in a
   deployment, point ``REPRO_CALIBRATION`` at the file) and watch
   ``backend="auto"`` resolve to the measured winner of the band containing
   each graph.

Run with::

    python examples/calibrated_auto.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import (
    CalibrationSpec,
    active_calibration,
    backend_availability,
    clear_calibration,
    load_calibration,
    resolve_backend,
    run_calibration,
)
from repro.graph.generators import chung_lu_graph

#: Kept small so the example runs in seconds; a real calibration would use
#: the default bands (up to 40k vertices) and 3+ repetitions.
MAX_BAND_VERTICES = 1200
REPETITIONS = 2
PROBE_SIZES = (500, 10_000, 100_000)


def main() -> None:
    print("Backend availability on this interpreter:")
    for name, reason in backend_availability().items():
        print(f"  {name:<8} {'available' if reason is None else f'skipped: {reason}'}")
    print()

    print("Before calibration (priority ladder):")
    for size in PROBE_SIZES:
        print(f"  auto @ {size:>7} vertices -> {resolve_backend('auto', size)}")
    print()

    spec = CalibrationSpec(repetitions=REPETITIONS).scaled(MAX_BAND_VERTICES)
    print(
        f"Sweeping {len(spec.bands)} size bands x {len(spec.workloads)} workloads "
        f"(best of {spec.repetitions})..."
    )
    table = run_calibration(spec)
    for band in table.bands:
        totals = {
            name: sum(per.values()) for name, per in sorted(band["timings"].items())
        }
        timing_text = " ".join(f"{name}={value:.4f}s" for name, value in totals.items())
        print(f"  band {band['name']:<7} winner={band['winner']:<8} {timing_text}")
    print()

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "calibration.json"
        table.save(path)
        print(f"Table persisted to {path.name} "
              f"(load anywhere via REPRO_CALIBRATION={path.name})")
        clear_calibration()  # forget the in-process table; reload from disk
        load_calibration(path)
        assert active_calibration() is not None

        print("After calibration (measured winners):")
        for size in PROBE_SIZES:
            print(f"  auto @ {size:>7} vertices -> {resolve_backend('auto', size)}")
        print()

        # An end-to-end query under the measured policy: "auto" here silently
        # resolves to the calibrated winner for this graph's size band.
        graph = chung_lu_graph(800, 2400, seed=9)
        result = GreedyAnchoredKCore(graph, 3, 2, backend="auto").select()
        print(
            f"Greedy on chung_lu(n={graph.num_vertices}) under the table: "
            f"anchors={sorted(result.anchors)} followers={len(result.followers)}"
        )

    clear_calibration()


if __name__ == "__main__":
    main()
