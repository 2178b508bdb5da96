"""Workload construction for the experiment harness.

A *workload* is an :class:`~repro.avt.problem.AVTProblem` built from one of the
dataset stand-ins with a concrete ``(k, l, T, scale, seed)`` configuration.
Loading a dataset stand-in and materialising its deltas is the most expensive
part of small sweeps, so problems are cached per configuration.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

from repro.avt.problem import AVTProblem
from repro.graph.datasets import check_dataset_arguments, dataset_spec, load_dataset


@lru_cache(maxsize=64)
def _cached_evolving_graph(name: str, num_snapshots: int, seed: int, scale: float):
    """Load (and cache) the evolving graph for one dataset configuration."""
    return load_dataset(name, num_snapshots=num_snapshots, seed=seed, scale=scale)


def build_problem(
    dataset: str,
    k: Optional[int] = None,
    budget: int = 10,
    num_snapshots: int = 30,
    scale: float = 1.0,
    seed: int = 7,
) -> AVTProblem:
    """Build the AVT problem for one experiment cell.

    ``k`` defaults to the dataset's default from its :class:`DatasetSpec`.
    The underlying evolving graph is cached, so sweeping ``k`` or ``l`` over
    the same dataset re-uses the same snapshots — exactly how the paper fixes
    the other parameters at their defaults while varying one.  The dataset
    arguments are checked before the cache lookup, which hashes them, so an
    unhashable one is a :class:`~repro.errors.ParameterError` too.
    """
    check_dataset_arguments(num_snapshots, seed, scale)
    spec = dataset_spec(dataset)
    if k is None:
        k = spec.default_k
    evolving = _cached_evolving_graph(dataset, num_snapshots, seed, scale)
    return AVTProblem(evolving_graph=evolving, k=k, budget=budget, name=dataset)


def dataset_k_values(dataset: str) -> Tuple[int, ...]:
    """Return the k grid the paper sweeps for ``dataset`` (scaled with its graph)."""
    return dataset_spec(dataset).k_values


def clear_workload_cache() -> None:
    """Drop all cached evolving graphs (used by tests to bound memory)."""
    _cached_evolving_graph.cache_clear()
