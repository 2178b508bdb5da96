"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload track --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice, untraced and then with the layer
wrappers installed, and reports the per-layer metrics and the tracing
overhead.  Lines starting with ``#`` are for people: the environment record,
the workload's named metrics and the answer digest.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("track", "engine-mixed", "engine-ingest")


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(HERE))
    from avtbench.environment import forbidden_variables, record

    forbidden = forbidden_variables(os.environ)
    if forbidden:
        print(f"refusing to run with {', '.join(forbidden)} set", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from avtbench.measure import measure
    from avtbench.workloads import WORKLOADS

    work_dir = HERE / f".run-{os.getpid()}"
    work_dir.mkdir()
    try:
        measurement = measure(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report = measurement.runs[0]
    report.environment = record(ROOT, args.workload, WORKLOADS[args.workload][1].num_vertices, args.seed, args.seconds)
    for line in report.report_lines(measurement.speed):
        print(line)
    print(
        json.dumps(
            {
                "correct": measurement.failed == 0,
                "attempted": measurement.attempted,
                "failed": measurement.failed,
                "metrics": measurement.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
