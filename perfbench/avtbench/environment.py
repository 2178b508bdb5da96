"""The environment guard and record.

Importing this module imports nothing from the library, so the guard can run
before ``repro`` reads any of the variables it refuses (``REPRO_TRACE`` is
read at import time).
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping

#: Variables that change what the library does under ``auto``: tracing,
#: a calibration table, armed faults, shard settings, disabled backends.
FORBIDDEN_EXACT = ("REPRO_TRACE", "REPRO_CALIBRATION", "REPRO_FAULTS")
FORBIDDEN_PREFIXES = ("REPRO_SHARD_", "REPRO_DISABLE_")


def forbidden_variables(environ: Mapping[str, str]) -> List[str]:
    """Names of set variables that would make the record incomparable."""
    return sorted(
        name for name in environ if name in FORBIDDEN_EXACT or name.startswith(FORBIDDEN_PREFIXES)
    )


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
    )
    return completed.stdout.strip() or "unknown"


def record(root: Path, workload: str, num_vertices: int, seed: int, seconds: float) -> Dict[str, object]:
    """Git SHA, CPUs, interpreter and numpy versions, and what ``auto`` picks."""
    import numpy

    from repro.backends import BACKEND_AUTO, resolve_backend

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "auto_backend": resolve_backend(BACKEND_AUTO, num_vertices),
    }
