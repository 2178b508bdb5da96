"""Synthetic stand-ins for the six SNAP datasets used in the paper.

The evaluation section runs on email-Enron, Gnutella, Deezer (static graphs
perturbed into 30 snapshots) and eu-core, mathoverflow, CollegeMsg (temporal
edge streams split into snapshots).  The originals cannot be redistributed or
downloaded offline, so each dataset has a deterministic synthetic stand-in
whose *shape* matches the original:

===============  =======================  ==========  ============  =================
name             paper type               paper n     paper avg deg generator here
===============  =======================  ==========  ============  =================
email-Enron      communication            36,692      10.0          power-law cluster
Gnutella         P2P overlay              62,586      4.7           sparse Erdős–Rényi
Deezer           social network           41,773      6.0           Barabási–Albert
eu-core          temporal e-mail          986         25.3 (dense)  temporal stream, skewed
mathoverflow     temporal Q&A             13,840      5.9           temporal stream
CollegeMsg       temporal messaging       1,899       10.7          temporal stream, dense
===============  =======================  ==========  ============  =================

The stand-ins are scaled down (hundreds to a few thousand vertices) so the
pure-Python harness finishes in minutes; vertex counts, average degrees,
skewness and the snapshot-evolution procedure follow the table above
proportionally.  Real SNAP files can be loaded with :mod:`repro.graph.io`
and passed through the same experiment harness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import DatasetError, ParameterError, require_int
from repro.graph.dynamic import EvolvingGraph, SnapshotSequence
from repro.graph.generators import (
    chung_lu_graph,
    perturb_snapshots,
    split_stream_into_snapshots,
    temporal_edge_stream,
)
from repro.graph.static import Graph


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic dataset stand-in.

    Attributes
    ----------
    name:
        Canonical dataset key (e.g. ``"email_enron"``).
    kind:
        ``"static"`` for perturbation-based snapshot sequences, ``"temporal"``
        for window-split temporal streams.
    num_vertices:
        Scaled-down vertex count of the stand-in.
    description:
        Human-readable provenance line, used in reports.
    default_k:
        The core-number default the paper uses for this dataset (3 or 10).
    k_values:
        The k grid the paper sweeps for this dataset.
    """

    name: str
    kind: str
    num_vertices: int
    description: str
    default_k: int
    k_values: Tuple[int, ...]


_SPECS: Dict[str, DatasetSpec] = {
    "email_enron": DatasetSpec(
        name="email_enron",
        kind="static",
        num_vertices=1500,
        description="power-law communication graph (stand-in for SNAP email-Enron)",
        default_k=10,
        k_values=(5, 10, 15, 20),
    ),
    # NOTE: k grids are scaled together with the graphs.  The
    # dense datasets keep the paper's high-k grid; the temporal stand-ins use a
    # grid that matches their (smaller) degeneracy.
    "gnutella": DatasetSpec(
        name="gnutella",
        kind="static",
        num_vertices=2000,
        description="sparse peer-to-peer overlay (stand-in for SNAP p2p-Gnutella)",
        default_k=3,
        k_values=(2, 3, 4),
    ),
    "deezer": DatasetSpec(
        name="deezer",
        kind="static",
        num_vertices=1800,
        description="preferential-attachment social graph (stand-in for SNAP Deezer)",
        default_k=3,
        k_values=(2, 3, 4, 5),
    ),
    "eu_core": DatasetSpec(
        name="eu_core",
        kind="temporal",
        num_vertices=400,
        description="dense temporal e-mail graph (stand-in for SNAP email-Eu-core)",
        default_k=8,
        k_values=(5, 8, 10, 12),
    ),
    "mathoverflow": DatasetSpec(
        name="mathoverflow",
        kind="temporal",
        num_vertices=1200,
        description="temporal question-and-answer graph (stand-in for SNAP sx-mathoverflow)",
        default_k=3,
        k_values=(2, 3, 4, 5),
    ),
    "college_msg": DatasetSpec(
        name="college_msg",
        kind="temporal",
        num_vertices=500,
        description="temporal private-messaging graph (stand-in for SNAP CollegeMsg)",
        default_k=5,
        k_values=(3, 5, 7, 9),
    ),
}

#: Names of all bundled dataset stand-ins, in the order the paper lists them.
DATASET_NAMES: Tuple[str, ...] = (
    "email_enron",
    "gnutella",
    "deezer",
    "eu_core",
    "mathoverflow",
    "college_msg",
)


def dataset_spec(name: str) -> DatasetSpec:
    """Return the :class:`DatasetSpec` for ``name``.

    Raises :class:`DatasetError` for unknown names.
    """
    try:
        return _SPECS[name]
    except KeyError:
        known = ", ".join(sorted(_SPECS))
        raise DatasetError(f"unknown dataset {name!r}; known datasets: {known}") from None


def _base_graph(spec: DatasetSpec, seed: int, scale: float) -> Graph:
    """Build the static base topology for a perturbation-based dataset.

    The Chung–Lu generator is used for all three because real communication /
    social graphs have heavy-tailed degrees with a *graded* core structure
    (every shell populated up to the degeneracy), which is what makes anchoring
    meaningful at a range of ``k`` values.  The skew and density parameters are
    tuned per dataset to approximate the originals' average degree.
    """
    num_vertices = max(50, int(spec.num_vertices * scale))
    if spec.name == "email_enron":
        # Average degree ~10, strongly skewed hubs (communication graph).
        return chung_lu_graph(
            num_vertices=num_vertices, num_edges=num_vertices * 5, skew=1.35, seed=seed
        )
    if spec.name == "gnutella":
        # Average degree ~4.7, mild skew (peer-to-peer overlay).
        return chung_lu_graph(
            num_vertices=num_vertices,
            num_edges=int(num_vertices * 2.4),
            skew=0.9,
            seed=seed,
        )
    if spec.name == "deezer":
        # Average degree ~6, moderate skew (friendship graph).
        return chung_lu_graph(
            num_vertices=num_vertices, num_edges=num_vertices * 3, skew=1.15, seed=seed
        )
    raise DatasetError(f"dataset {spec.name!r} is not a static dataset")


def _temporal_snapshots(
    spec: DatasetSpec, num_snapshots: int, seed: int, scale: float
) -> SnapshotSequence:
    """Build the snapshot sequence for a temporal dataset stand-in."""
    num_vertices = max(40, int(spec.num_vertices * scale))
    if spec.name == "eu_core":
        events = temporal_edge_stream(
            num_vertices=num_vertices,
            num_events=num_vertices * 40,
            duration=803.0,
            activity_skew=1.2,
            seed=seed,
        )
        window = 365.0
    elif spec.name == "mathoverflow":
        events = temporal_edge_stream(
            num_vertices=num_vertices,
            num_events=num_vertices * 36,
            duration=2350.0,
            activity_skew=1.5,
            seed=seed,
        )
        window = 365.0
    elif spec.name == "college_msg":
        events = temporal_edge_stream(
            num_vertices=num_vertices,
            num_events=num_vertices * 25,
            duration=193.0,
            activity_skew=1.4,
            seed=seed,
        )
        window = 90.0
    else:
        raise DatasetError(f"dataset {spec.name!r} is not a temporal dataset")
    return split_stream_into_snapshots(
        events, num_snapshots=num_snapshots, inactivity_window=window
    )


def load_dataset(
    name: str,
    num_snapshots: int = 30,
    seed: int = 7,
    scale: float = 1.0,
    edge_churn: Optional[Tuple[int, int]] = None,
) -> EvolvingGraph:
    """Load a synthetic dataset stand-in as an :class:`EvolvingGraph`.

    Parameters
    ----------
    name:
        One of :data:`DATASET_NAMES`.
    num_snapshots:
        The number of snapshots ``T`` (the paper uses 30), an integer >= 1.
    seed:
        Deterministic generator seed, an integer.
    scale:
        Multiplier on the stand-in vertex count, a finite real number above
        0 (not a bool).  Benchmarks use ``scale < 1`` for quick runs and
        ``scale = 1`` for the recorded experiments.  A scale small enough to
        round the count below the stand-in's floor (50 vertices, 40 for the
        temporal ones) builds that smallest stand-in.
    edge_churn:
        Per-step ``(low, high)`` edge removal/insertion counts for the static
        datasets.  Defaults to the paper's 100–250 range scaled by the ratio of
        stand-in to original edge count.

    A bad ``num_snapshots``, ``seed`` or ``scale`` raises
    :class:`~repro.errors.ParameterError` naming the argument, before any
    generation; :func:`load_snapshot_sequence` and :func:`dataset_summary`
    share these checks.
    """
    require_int("num_snapshots", num_snapshots, 1)
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ParameterError(f"seed must be an integer, not {seed!r}")
    if (
        isinstance(scale, bool)
        or not isinstance(scale, numbers.Real)
        or not (math.isfinite(scale) and scale > 0)
    ):
        raise ParameterError(f"scale must be a finite number above 0, not {scale!r}")
    seed = int(seed)
    spec = dataset_spec(name)
    if spec.kind == "static":
        base = _base_graph(spec, seed=seed, scale=scale)
        if edge_churn is None:
            # Paper: 100-250 edge changes out of ~125k-185k edges (~0.1-0.2%).
            # Keep the same relative churn so snapshots remain "smooth".
            low = max(3, base.num_edges // 1000)
            high = max(low + 2, base.num_edges // 400)
            edge_churn = (low, high)
        return perturb_snapshots(
            base,
            num_snapshots=num_snapshots,
            removals_per_step=edge_churn,
            insertions_per_step=edge_churn,
            seed=seed + 1,
        )
    sequence = _temporal_snapshots(spec, num_snapshots=num_snapshots, seed=seed, scale=scale)
    return sequence.to_evolving_graph()


def load_snapshot_sequence(
    name: str,
    num_snapshots: int = 30,
    seed: int = 7,
    scale: float = 1.0,
) -> SnapshotSequence:
    """Load a dataset stand-in as a materialised :class:`SnapshotSequence`."""
    return load_dataset(
        name, num_snapshots=num_snapshots, seed=seed, scale=scale
    ).to_snapshot_sequence()


def toy_example_graph() -> Graph:
    """Return a 17-user "reading hobby community" modelled on the paper's Figure 1 (t = 1).

    Vertex ids are 1..17 matching ``u1``..``u17``.  The graph is constructed so
    that the worked examples of the paper hold exactly:

    * the 3-core is ``{8, 9, 12, 13, 16}`` (Example 2);
    * anchoring ``{7, 10}`` brings followers ``{2, 3, 5, 6, 11}`` into the
      anchored 3-core, growing it from 5 to 12 members (Example 3); and
    * anchoring ``15`` alone yields the single follower ``{14}`` (Example 6).
    """
    edges = [
        # dense 3-core block: u8, u9, u12, u13, u16
        (8, 9), (8, 12), (8, 13), (9, 12), (9, 16), (12, 13), (12, 16), (13, 16),
        # u14 and u15: 2-core members next to the core (Example 6)
        (14, 9), (14, 16), (14, 15), (15, 16), (15, 17),
        # left-hand community around u2, u3, u5, u6, u11 hanging off the core
        (2, 3), (2, 11), (2, 7), (2, 1), (2, 13),
        (3, 5), (3, 7), (3, 9),
        (5, 6), (5, 10), (6, 11), (6, 10), (11, 16),
        # periphery
        (1, 4), (1, 17),
    ]
    graph = Graph(vertices=range(1, 18))
    graph.add_edges(edges)
    return graph


def toy_example_evolving_graph() -> EvolvingGraph:
    """Return a two-snapshot evolving graph in the spirit of Figure 1.

    Snapshot 2 applies the change described in Example 1: the relationship
    ``(u2, u5)`` is established and ``(u2, u11)`` is broken.  Losing the edge to
    ``u2`` means ``u11`` can no longer be rescued, so the best anchor set and
    its follower structure change between the two timestamps — the effect the
    AVT problem is about.
    """
    from repro.graph.dynamic import EdgeDelta

    base = toy_example_graph()
    delta = EdgeDelta.from_iterables(inserted=[(2, 5)], removed=[(2, 11)])
    return EvolvingGraph(base=base, deltas=[delta])


def dataset_summary(name: str, num_snapshots: int = 30, seed: int = 7, scale: float = 1.0) -> Dict[str, object]:
    """Return summary statistics of a dataset stand-in (for reports and README)."""
    spec = dataset_spec(name)
    evolving = load_dataset(name, num_snapshots=num_snapshots, seed=seed, scale=scale)
    first = evolving.base
    return {
        "name": spec.name,
        "kind": spec.kind,
        "description": spec.description,
        "num_vertices": first.num_vertices,
        "num_edges_first_snapshot": first.num_edges,
        "average_degree": round(first.average_degree(), 2),
        "num_snapshots": evolving.num_snapshots,
        "total_edge_changes": evolving.total_edge_changes(),
        "default_k": spec.default_k,
        "k_values": spec.k_values,
    }
