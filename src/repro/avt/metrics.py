"""Cross-algorithm comparison metrics for AVT results.

These helpers turn a collection of :class:`~repro.avt.problem.AVTResult`
objects (one per algorithm, same problem) into the headline quantities the
paper reports: speed-ups, visited-vertex ratios, and follower-quality ratios.
They are used by the experiment harness and the CLI.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.avt.problem import AVTResult
from repro.errors import ParameterError


def _by_algorithm(results: Iterable[AVTResult]) -> Dict[str, AVTResult]:
    """Index results by algorithm name, rejecting duplicates."""
    indexed: Dict[str, AVTResult] = {}
    for result in results:
        if result.algorithm in indexed:
            raise ParameterError(f"duplicate result for algorithm {result.algorithm!r}")
        indexed[result.algorithm] = result
    return indexed


def speedup(results: Iterable[AVTResult], baseline: str, target: str) -> float:
    """Return how many times faster ``target`` is than ``baseline`` (total runtime)."""
    indexed = _by_algorithm(results)
    if baseline not in indexed or target not in indexed:
        raise ParameterError(f"missing results for {baseline!r} or {target!r}")
    target_time = indexed[target].total_runtime_seconds
    if target_time <= 0:
        return float("inf")
    return indexed[baseline].total_runtime_seconds / target_time


def visited_ratio(results: Iterable[AVTResult], baseline: str, target: str) -> float:
    """Return the ratio of visited candidate vertices, baseline over target."""
    indexed = _by_algorithm(results)
    if baseline not in indexed or target not in indexed:
        raise ParameterError(f"missing results for {baseline!r} or {target!r}")
    target_visited = indexed[target].total_visited_vertices
    if target_visited <= 0:
        return float("inf")
    return indexed[baseline].total_visited_vertices / target_visited


def follower_quality(results: Iterable[AVTResult], reference: str) -> Dict[str, float]:
    """Return each algorithm's total followers as a fraction of ``reference``'s.

    A value of 1.0 means identical effectiveness; the paper's heuristics all
    sit close to 1.0 of each other, with brute force slightly above.
    """
    indexed = _by_algorithm(results)
    if reference not in indexed:
        raise ParameterError(f"missing results for reference {reference!r}")
    reference_total = indexed[reference].total_followers
    quality: Dict[str, float] = {}
    for name, result in indexed.items():
        if reference_total == 0:
            quality[name] = 1.0 if result.total_followers == 0 else float("inf")
        else:
            quality[name] = result.total_followers / reference_total
    return quality


def followers_series(results: Iterable[AVTResult]) -> Dict[str, List[int]]:
    """Return the per-snapshot follower series per algorithm (Figures 9 and 12)."""
    return {result.algorithm: result.followers_per_snapshot for result in results}


def anchor_stability(result: AVTResult) -> float:
    """Return the average Jaccard similarity of consecutive anchor sets.

    High values mean the tracker keeps its anchors stable across snapshots —
    the property that makes incremental tracking effective on smoothly
    evolving networks.
    """
    anchor_sets = [set(anchors) for anchors in result.anchor_sets]
    if len(anchor_sets) < 2:
        return 1.0
    similarities: List[float] = []
    for previous, current in zip(anchor_sets, anchor_sets[1:]):
        union = previous | current
        if not union:
            similarities.append(1.0)
        else:
            similarities.append(len(previous & current) / len(union))
    return sum(similarities) / len(similarities)


def summarise(results: Sequence[AVTResult]) -> List[Dict[str, object]]:
    """Return one summary row per algorithm (used by the CLI and reports)."""
    rows: List[Dict[str, object]] = []
    for result in results:
        rows.append(
            {
                "algorithm": result.algorithm,
                "k": result.k,
                "l": result.budget,
                "T": len(result.snapshots),
                "followers": result.total_followers,
                "visited": result.total_visited_vertices,
                "candidates": result.total_candidates_evaluated,
                "time_s": round(result.total_runtime_seconds, 4),
                "anchor_stability": round(anchor_stability(result), 3),
            }
        )
    return rows
