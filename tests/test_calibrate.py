"""Tests for measured backend selection (:mod:`repro.backends.calibrate`).

The calibration table replaces the registry's hard-coded ``auto_priority``
expectation with a measurement.  These tests pin the policy layering around
it: per-band winner resolution, the priority-ladder fallbacks (no covering
band, winner unavailable, no table), one-shot workloads staying on dict,
persistence (save/load, ``REPRO_CALIBRATION`` lazy loading, version gating),
the sweep itself, and the engine's flush-time re-resolution following the
table across band boundaries.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import (
    BACKEND_COMPACT,
    BACKEND_DICT,
    BACKEND_NUMPY,
    COMPACT_THRESHOLD,
    WORKLOAD_ONE_SHOT,
    CalibrationSpec,
    CalibrationTable,
    SizeBand,
    active_calibration,
    clear_calibration,
    load_calibration,
    numpy_available,
    resolve_backend,
    run_calibration,
    set_calibration,
)
from repro.backends.calibrate import CALIBRATION_ENV, DEFAULT_BANDS
from repro.engine import StreamingAVTEngine
from repro.errors import ParameterError
from repro.graph.dynamic import EdgeDelta

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")


@pytest.fixture(autouse=True)
def isolated_calibration(monkeypatch):
    """No test leaks an active table (or the env lazy-load) to its neighbours."""
    monkeypatch.delenv(CALIBRATION_ENV, raising=False)
    clear_calibration()
    yield
    clear_calibration()


def synthetic_table(small="dict", medium="compact", large="numpy") -> CalibrationTable:
    return CalibrationTable(
        [
            {"name": "small", "lo": 0, "hi": 4096, "winner": small, "timings": {}},
            {"name": "medium", "lo": 4096, "hi": 32768, "winner": medium, "timings": {}},
            {"name": "large", "lo": 32768, "hi": None, "winner": large, "timings": {}},
        ]
    )


class TestWinnerResolution:
    def test_winner_per_band(self):
        table = synthetic_table()
        assert table.winner_for(10) == "dict"
        assert table.winner_for(4096) == "compact"
        assert table.winner_for(32767) == "compact"
        assert table.winner_for(10**9) == "numpy"

    def test_uncovered_size_returns_none(self):
        table = CalibrationTable(
            [{"name": "mid", "lo": 100, "hi": 200, "winner": "compact", "timings": {}}]
        )
        assert table.winner_for(50) is None
        assert table.winner_for(200) is None

    def test_unavailable_winner_returns_none(self):
        table = synthetic_table(large="numpy")
        assert table.winner_for(10**9, available=("dict", "compact")) is None
        assert table.winner_for(10**9, available=("dict", "numpy")) == "numpy"

    def test_band_without_winner_returns_none(self):
        table = CalibrationTable(
            [{"name": "all", "lo": 0, "hi": None, "winner": None, "timings": {}}]
        )
        assert table.winner_for(10) is None


class TestMeasuredAutoPolicy:
    def test_auto_follows_the_active_table(self):
        # The synthetic table inverts the ladder: dict on a large graph.
        set_calibration(synthetic_table(large="dict"))
        assert resolve_backend("auto", 10**6) == BACKEND_DICT
        assert resolve_backend("auto", 8192) == BACKEND_COMPACT
        # Below the threshold the table still answers (band "small").
        assert resolve_backend("auto", 10) == BACKEND_DICT

    @needs_numpy
    def test_auto_picks_measured_winner_per_band(self):
        set_calibration(synthetic_table(small="numpy", medium="dict", large="compact"))
        assert resolve_backend("auto", 100) == BACKEND_NUMPY
        assert resolve_backend("auto", 10_000) == BACKEND_DICT
        assert resolve_backend("auto", 100_000) == BACKEND_COMPACT

    def test_one_shot_workloads_ignore_the_table(self):
        set_calibration(synthetic_table(small="compact", large="compact"))
        assert resolve_backend("auto", 10**9, workload=WORKLOAD_ONE_SHOT) == BACKEND_DICT

    def test_explicit_names_ignore_the_table(self):
        set_calibration(synthetic_table(small="compact"))
        assert resolve_backend("dict", 10) == BACKEND_DICT
        assert resolve_backend("compact", 10**9) == BACKEND_COMPACT

    def test_unavailable_winner_falls_back_to_the_ladder(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        set_calibration(synthetic_table(large="numpy"))
        assert resolve_backend("auto", 10**6) == BACKEND_COMPACT

    def test_no_table_keeps_the_ladder(self):
        assert active_calibration() is None
        assert resolve_backend("auto", COMPACT_THRESHOLD - 1) == BACKEND_DICT


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        table = synthetic_table()
        path = tmp_path / "calibration.json"
        table.save(path)
        loaded = CalibrationTable.load(path)
        assert loaded.bands == table.bands
        assert loaded.winner_for(10**6) == table.winner_for(10**6)

    def test_load_calibration_installs(self, tmp_path):
        path = tmp_path / "calibration.json"
        synthetic_table().save(path)
        table = load_calibration(path)
        assert active_calibration() is table

    def test_env_variable_loads_lazily(self, tmp_path, monkeypatch):
        path = tmp_path / "calibration.json"
        synthetic_table(large="dict").save(path)
        monkeypatch.setenv(CALIBRATION_ENV, str(path))
        clear_calibration()  # re-arm the lazy load under the new env
        table = active_calibration()
        assert table is not None
        assert table.winner_for(10**9) == "dict"

    def test_unreadable_env_file_warns_once_and_falls_back(
        self, tmp_path, monkeypatch, caplog
    ):
        path = tmp_path / "broken.json"
        path.write_text("not json", encoding="utf-8")
        monkeypatch.setenv(CALIBRATION_ENV, str(path))
        clear_calibration()
        with caplog.at_level("WARNING", logger="repro.backends.calibrate"):
            assert active_calibration() is None
            assert active_calibration() is None  # second call: cached, no re-read
        assert len([r for r in caplog.records if "broken.json" in r.message]) == 1
        # The ladder still answers.
        assert resolve_backend("auto", 10) == BACKEND_DICT

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps({"calibration_version": 99, "bands": []}), encoding="utf-8"
        )
        with pytest.raises(ParameterError, match="version"):
            CalibrationTable.load(path)

    def test_missing_bands_rejected(self):
        with pytest.raises(ParameterError, match="bands"):
            CalibrationTable.from_payload({"calibration_version": 1})

    def test_set_calibration_none_clears(self):
        set_calibration(synthetic_table())
        set_calibration(None)
        assert active_calibration() is None


class TestRunCalibration:
    SMOKE_SPEC = CalibrationSpec(
        bands=(SizeBand("tiny", 0, None, 160),),
        repetitions=1,
    )

    def test_smoke_sweep_produces_winners(self):
        table = run_calibration(self.SMOKE_SPEC)
        assert table.band_names() == ("tiny",)
        band = table.bands[0]
        assert band["winner"] in band["timings"]
        for per_workload in band["timings"].values():
            assert set(per_workload) == set(self.SMOKE_SPEC.workloads)
            assert all(value >= 0.0 for value in per_workload.values())

    def test_install_flag_activates_the_table(self):
        table = run_calibration(self.SMOKE_SPEC, install=True)
        assert active_calibration() is table

    def test_scaled_caps_band_samples(self):
        spec = CalibrationSpec().scaled(500)
        assert all(band.sample_vertices <= 500 for band in spec.bands)
        assert [band.name for band in spec.bands] == [band.name for band in DEFAULT_BANDS]

    def test_unknown_workload_rejected(self):
        with pytest.raises(ParameterError, match="workload"):
            run_calibration(CalibrationSpec(workloads=("peel", "quantum")))

    def test_bad_repetitions_rejected(self):
        with pytest.raises(ParameterError, match="repetitions"):
            run_calibration(CalibrationSpec(repetitions=0))


class TestEngineFollowsTheTable:
    def test_flush_re_resolves_across_band_boundaries(self):
        # A table that crowns compact *below* the auto threshold: without the
        # measurement the engine would stay on dict at this size.
        set_calibration(
            CalibrationTable(
                [
                    {"name": "tiny", "lo": 0, "hi": 64, "winner": "dict", "timings": {}},
                    {
                        "name": "rest",
                        "lo": 64,
                        "hi": None,
                        "winner": "compact",
                        "timings": {},
                    },
                ]
            )
        )
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        assert engine.backend == BACKEND_DICT
        engine.ingest(
            EdgeDelta.from_iterables(
                inserted=[(i, i + 1) for i in range(100)], removed=[]
            )
        )
        engine.flush()
        assert engine.backend == BACKEND_COMPACT
        engine._maintainer.validate()
