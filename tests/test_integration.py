"""End-to-end integration tests across the full stack.

These tests run the complete pipeline — dataset stand-in, AVT problem, all
trackers, metrics and reporting — at a small scale and check the cross-cutting
relationships the paper's evaluation relies on.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

from repro import (
    AVTProblem,
    GreedyTracker,
    IncAVTTracker,
    OLAKTracker,
    RCMTracker,
    load_dataset,
)
from repro.anchored.followers import compute_followers
from repro.avt.metrics import follower_quality, speedup, summarise, visited_ratio
from repro.bench.reporting import format_table
from repro.bench.runner import default_trackers, run_sweep


@pytest.fixture(scope="module")
def gnutella_problem():
    evolving = load_dataset("gnutella", num_snapshots=4, scale=0.2, seed=11)
    return AVTProblem(evolving, k=3, budget=3, name="gnutella")


@pytest.fixture(scope="module")
def all_results(gnutella_problem):
    return {
        "OLAK": OLAKTracker().track(gnutella_problem),
        "Greedy": GreedyTracker().track(gnutella_problem),
        "IncAVT": IncAVTTracker().track(gnutella_problem),
        "RCM": RCMTracker().track(gnutella_problem),
    }


class TestCrossAlgorithmRelationships:
    def test_every_tracker_covers_every_snapshot(self, gnutella_problem, all_results):
        for result in all_results.values():
            assert len(result) == gnutella_problem.num_snapshots

    def test_visited_vertices_ordering_matches_paper(self, all_results):
        """Figures 4/6/8: OLAK visits the most, IncAVT the fewest."""
        olak = all_results["OLAK"].total_visited_vertices
        greedy = all_results["Greedy"].total_visited_vertices
        incavt = all_results["IncAVT"].total_visited_vertices
        assert olak > greedy >= incavt

    def test_follower_quality_is_comparable_across_heuristics(self, all_results):
        """Figures 9-11: all four approaches find similar follower counts."""
        quality = follower_quality(all_results.values(), reference="Greedy")
        assert quality["OLAK"] == pytest.approx(1.0, abs=0.2)
        assert quality["IncAVT"] >= 0.6
        assert quality["RCM"] >= 0.6

    def test_greedy_and_olak_agree_exactly(self, all_results):
        """Both evaluate every useful candidate exhaustively, so their greedy
        choices coincide snapshot by snapshot."""
        assert (
            all_results["Greedy"].followers_per_snapshot
            == all_results["OLAK"].followers_per_snapshot
        )

    def test_followers_are_verifiable_against_the_graphs(self, gnutella_problem, all_results):
        snapshots = list(gnutella_problem.evolving_graph.snapshots())
        for result in all_results.values():
            for snapshot_result, graph in zip(result, snapshots):
                expected = compute_followers(graph, gnutella_problem.k, snapshot_result.anchors)
                assert set(snapshot_result.result.followers) == expected

    def test_metrics_speedup_and_ratios_are_consistent(self, all_results):
        results = list(all_results.values())
        assert speedup(results, baseline="OLAK", target="IncAVT") >= 1.0
        assert visited_ratio(results, baseline="OLAK", target="IncAVT") > 1.0
        rows = summarise(results)
        assert len(rows) == 4
        assert format_table(rows)


class TestSweepIntegration:
    def test_run_sweep_with_default_lineup(self, gnutella_problem):
        table = run_sweep([gnutella_problem.truncated(2)], trackers=default_trackers())
        assert len(table) == 4
        algorithms = set(table.distinct("algorithm"))
        assert algorithms == {"OLAK", "Greedy", "IncAVT", "RCM"}
        for row in table.rows():
            assert row["T"] == 2
            assert row["followers"] >= 0


class TestPublicAPI:
    def test_star_import_surface(self):
        import repro

        packages = [repro] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        assert len(packages) > 1
        for package in packages:
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_quickstart_docstring_flow(self):
        problem = AVTProblem(
            load_dataset("eu_core", num_snapshots=3, scale=0.15), k=3, budget=2
        )
        result = IncAVTTracker().track(problem)
        assert result.summary()
        assert len(result) == 3
