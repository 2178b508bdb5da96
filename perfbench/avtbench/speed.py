"""Machine-speed probe: normalises timings for a machine whose speed drifts.

On a shared 2-CPU virtual machine the same computation runs up to 1.7x
slower for stretches of one to twenty seconds, whatever the process does:
CPU time slows as much as wall time, so the cause is the host, not
scheduling.  Medians over one run cannot remove a slow stretch that covers
half of it.  So the benchmark times a fixed pure-Python reference
computation every :data:`INTERVAL` seconds, between the operations it
measures, and divides every timing by the machine's speed around it: the
mean reference time within :data:`WINDOW` seconds of the timing, over
:data:`NOMINAL_SECONDS`.  One probe is the fastest of :data:`REPEATS` runs
of the reference, so that a single interrupt does not read as a slow
stretch.  A normalised millisecond is a millisecond on a machine where the
reference takes :data:`NOMINAL_SECONDS`.

The window takes the mean, not the median: a timing that overlaps part of a
slow stretch is slowed in proportion to the overlap, which the mean follows
and the median does not.  Over ten recorded runs of each workload on the
2-CPU machine above, the mean halved the spread of ``track``'s tail and
``op_p50_ms`` and changed no other spread by more than its own noise.

The reference is the benchmark's own code (a bucket k-core peel over a fixed
1.5k-vertex graph, the same kind of dict and set work as the library), so no
change to the library can move it.  It runs with the garbage collector off,
so a change that grows the library's heap does not slow the reference.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time
from typing import List, Set

#: Seconds between two probes.
INTERVAL = 0.2
#: Reference runs per probe; the probe keeps the fastest.
REPEATS = 3
#: Probes within this many seconds of a timing set its machine speed.
WINDOW = 0.5
#: Reference seconds that define speed 1 (about its time on a quiet 2-CPU machine).
NOMINAL_SECONDS = 2.0e-3

_VERTICES = 1500
_EDGES = 4500


def _reference_graph() -> List[Set[int]]:
    rng = random.Random("speed-reference")
    adjacency: List[Set[int]] = [set() for _ in range(_VERTICES)]
    for _ in range(_EDGES):
        u, v = rng.randrange(_VERTICES), rng.randrange(_VERTICES)
        if u != v:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return adjacency


class SpeedProbe:
    """Probes machine speed between measured operations; see the module docstring."""

    def __init__(self) -> None:
        self._adjacency = _reference_graph()
        self._times: List[float] = []
        self._seconds: List[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Probe if the last probe is :data:`INTERVAL` seconds old."""
        if time.perf_counter() - self._last >= INTERVAL:
            self.probe()

    def probe(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                self._reference()
                runs.append((time.perf_counter() - started, started))
        finally:
            if enabled:
                gc.enable()
        seconds, started = min(runs)
        self._times.append(started + seconds / 2)
        self._seconds.append(seconds)
        self._last = time.perf_counter()

    def _reference(self) -> int:
        """Bucket k-core peel of the reference graph; returns the degeneracy."""
        adjacency = self._adjacency
        degree = {vertex: len(neighbours) for vertex, neighbours in enumerate(adjacency)}
        buckets: dict = {}
        for vertex, value in degree.items():
            buckets.setdefault(value, set()).add(vertex)
        level = 0
        while degree:
            while not buckets.get(level):
                level += 1
            vertex = buckets[level].pop()
            del degree[vertex]
            for neighbour in adjacency[vertex]:
                value = degree.get(neighbour)
                if value is not None and value > level:
                    buckets[value].discard(neighbour)
                    degree[neighbour] = value - 1
                    buckets.setdefault(value - 1, set()).add(neighbour)
        return level

    @property
    def probes(self) -> int:
        return len(self._seconds)

    def slowdown(self, start: float, end: float) -> float:
        """Machine slowdown over ``[start, end]``: 1.0 at nominal speed, 2.0 at half."""
        if not self._seconds:
            raise RuntimeError("no speed probe has run")
        low = bisect.bisect_left(self._times, start - WINDOW)
        high = bisect.bisect_right(self._times, end + WINDOW)
        if low == high:
            nearest = min(range(len(self._times)), key=lambda i: abs(self._times[i] - start))
            low, high = nearest, nearest + 1
        return statistics.fmean(self._seconds[low:high]) / NOMINAL_SECONDS

    def median_slowdown(self) -> float:
        return statistics.median(self._seconds) / NOMINAL_SECONDS
