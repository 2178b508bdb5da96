"""Unit tests for the dataset stand-ins and the Figure-1 toy example."""

from __future__ import annotations

import pytest

from repro.anchored.followers import compute_followers
from repro.bench.workloads import build_problem
from repro.cores.decomposition import core_numbers
from repro.errors import DatasetError, ParameterError
from repro.graph.datasets import (
    DATASET_NAMES,
    dataset_spec,
    dataset_summary,
    load_dataset,
    load_snapshot_sequence,
    toy_example_evolving_graph,
    toy_example_graph,
)


class TestSpecs:
    def test_all_six_paper_datasets_have_specs(self):
        assert set(DATASET_NAMES) == {
            "email_enron",
            "gnutella",
            "deezer",
            "eu_core",
            "mathoverflow",
            "college_msg",
        }
        for name in DATASET_NAMES:
            spec = dataset_spec(name)
            assert spec.name == name
            assert spec.kind in {"static", "temporal"}
            assert spec.default_k in spec.k_values
            assert len(spec.k_values) >= 3

    def test_unknown_dataset_raises(self):
        with pytest.raises(DatasetError):
            dataset_spec("facebook")

    def test_static_and_temporal_split_matches_paper(self):
        static = {name for name in DATASET_NAMES if dataset_spec(name).kind == "static"}
        assert static == {"email_enron", "gnutella", "deezer"}


class TestLoading:
    @pytest.mark.parametrize("name", DATASET_NAMES)
    def test_load_every_dataset_small(self, name):
        evolving = load_dataset(name, num_snapshots=3, scale=0.15, seed=3)
        assert evolving.num_snapshots == 3
        assert evolving.base.num_vertices >= 40
        assert evolving.base.num_edges > 0

    def test_loading_is_deterministic(self):
        first = load_dataset("gnutella", num_snapshots=3, scale=0.2, seed=5)
        second = load_dataset("gnutella", num_snapshots=3, scale=0.2, seed=5)
        assert first.base == second.base
        assert first.deltas == second.deltas

    def test_different_seeds_differ(self):
        first = load_dataset("gnutella", num_snapshots=3, scale=0.2, seed=5)
        second = load_dataset("gnutella", num_snapshots=3, scale=0.2, seed=6)
        assert first.base != second.base

    def test_static_datasets_keep_vertex_set(self):
        evolving = load_dataset("deezer", num_snapshots=4, scale=0.2, seed=1)
        vertex_sets = [set(snapshot.vertices()) for snapshot in evolving.snapshots()]
        assert all(vertices == vertex_sets[0] for vertices in vertex_sets)

    def test_static_datasets_have_smooth_churn(self):
        evolving = load_dataset("email_enron", num_snapshots=4, scale=0.25, seed=1)
        for delta in evolving.deltas:
            assert delta.num_changes <= 0.02 * evolving.base.num_edges

    def test_load_snapshot_sequence_matches_evolving(self):
        sequence = load_snapshot_sequence("gnutella", num_snapshots=3, scale=0.2, seed=5)
        evolving = load_dataset("gnutella", num_snapshots=3, scale=0.2, seed=5)
        assert sequence.num_snapshots == evolving.num_snapshots
        assert sequence[0] == evolving.base

    def test_edge_churn_override(self):
        evolving = load_dataset(
            "gnutella", num_snapshots=3, scale=0.2, seed=5, edge_churn=(1, 2)
        )
        for delta in evolving.deltas:
            assert len(delta.removed) <= 2

    @pytest.mark.parametrize(
        "argument, value",
        [
            ("scale", 0),
            ("scale", -1),
            ("scale", float("nan")),
            ("scale", float("inf")),
            ("scale", "x"),
            ("scale", True),
            ("num_snapshots", 2.5),
            ("seed", "x"),
            ("seed", 1.5),
            ("seed", None),
        ],
    )
    def test_bad_arguments_are_parameter_errors(self, argument, value):
        # One check in load_dataset serves every loader and build_problem,
        # for static and temporal stand-ins alike, before any generation.
        loaders = (load_dataset, load_snapshot_sequence, dataset_summary, build_problem)
        for name in ("gnutella", "mathoverflow"):
            for load in loaders:
                with pytest.raises(ParameterError, match=f"^{argument} "):
                    load(name, **{argument: value})

    def test_dataset_summary_fields(self):
        summary = dataset_summary("college_msg", num_snapshots=3, scale=0.3)
        assert summary["name"] == "college_msg"
        assert summary["kind"] == "temporal"
        assert summary["num_snapshots"] == 3
        assert summary["num_vertices"] > 0
        assert summary["average_degree"] > 0


class TestToyExample:
    def test_seventeen_users(self, toy_graph):
        assert toy_graph.num_vertices == 17
        assert set(toy_graph.vertices()) == set(range(1, 18))

    def test_three_core_matches_example_2(self, toy_graph):
        core = core_numbers(toy_graph)
        three_core = {vertex for vertex, value in core.items() if value >= 3}
        assert three_core == {8, 9, 12, 13, 16}

    def test_anchoring_7_and_10_matches_example_3(self, toy_graph):
        followers = compute_followers(toy_graph, 3, {7, 10})
        assert followers == {2, 3, 5, 6, 11}

    def test_anchoring_15_matches_example_6(self, toy_graph):
        assert compute_followers(toy_graph, 3, {15}) == {14}

    def test_anchor_candidates_have_low_degree(self, toy_graph):
        assert toy_graph.degree(7) < 3
        assert toy_graph.degree(10) < 3

    def test_evolving_toy_changes_follower_structure(self, toy_evolving):
        snapshots = list(toy_evolving.snapshots())
        assert len(snapshots) == 2
        before = compute_followers(snapshots[0], 3, {7, 10})
        after = compute_followers(snapshots[1], 3, {7, 10})
        assert before == {2, 3, 5, 6, 11}
        assert after != before
        assert 11 not in after
