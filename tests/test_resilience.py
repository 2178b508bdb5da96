"""Tests for :mod:`repro.resilience` and the verified checkpoint format.

Covers the fault-injection mini-language (parsing, site validation,
deterministic schedules) and the verified checkpoint format (per-section
digest detection, rotation, fallback restore).
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.engine import StreamingAVTEngine
from repro.engine.checkpoint import (
    load_checkpoint,
    read_state,
    rotated_paths,
    save_checkpoint,
    write_state,
)
from repro.errors import (
    CheckpointCorruptionError,
    CheckpointError,
    FaultError,
    ParameterError,
)
from repro.graph.static import Graph
from repro.obs.metrics import global_registry
from repro.resilience import FaultPlan, FaultSpec, faults, parse_faults


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """No test leaks an armed plan (programmatic or environment)."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.clear_plan()
    yield
    faults.clear_plan()


class TestFaultSpecParsing:
    def test_parse_round_trip(self):
        plan = parse_faults(
            "checkpoint.write:action=fail,path=/tmp/x,at=2;"
            "checkpoint.bytes:action=corrupt,section=core,times=3;"
            "checkpoint.write:action=error,rate=0.25,seed=7"
        )
        assert [spec.site for spec in plan.specs] == [
            "checkpoint.write",
            "checkpoint.bytes",
            "checkpoint.write",
        ]
        fail, corrupt, error = plan.specs
        assert fail.action == "fail"
        assert fail.match == {"path": "/tmp/x"}
        assert fail.at == 2
        assert corrupt.times == 3
        assert corrupt.match == {"section": "core"}
        assert error.action == "error" and error.rate == 0.25 and error.seed == 7

    @pytest.mark.parametrize(
        "raw",
        [
            "no-colon-here",
            "checkpoint.write:action",
            "checkpoint.write:at=notanumber",
            "checkpoint.write:times=-1",
            "checkpoint.write:rate=2.0",
            "checkpoint.write:action=unknown",
            "checkpont.bytes:action=corrupt,times=0",
            "checkpoint.write:action=slow",
            "checkpoint.write:action=crash",
            # Specs written for the retired shard.op site are refused too.
            "shard.op:action=error",
            "shard.op:action",
            "shard.op:at=notanumber",
            "shard.op:times=-1",
            "shard.op:rate=2.0",
            "shard.op:action=unknown",
        ],
    )
    def test_malformed_specs_rejected(self, raw):
        with pytest.raises(ParameterError):
            parse_faults(raw)

    def test_unknown_site_names_both_sites(self):
        with pytest.raises(ParameterError) as info:
            FaultSpec("checkpont.bytes", "corrupt")
        assert "checkpoint.write" in str(info.value)
        assert "checkpoint.bytes" in str(info.value)

    def test_times_cap_and_at_pin(self):
        spec = FaultSpec("checkpoint.write", "error", at=2, times=1)
        plan = FaultPlan([spec])
        assert plan.fire("checkpoint.write") is None  # hit 1: before `at`
        with pytest.raises(FaultError):
            plan.fire("checkpoint.write")  # hit 2: fires
        assert plan.fire("checkpoint.write") is None  # spent
        assert spec.fired == 1 and spec.hits >= 2

    def test_rate_draws_are_deterministic(self):
        def firing_pattern(seed):
            spec = FaultSpec("checkpoint.bytes", "corrupt", rate=0.4, times=0, seed=seed)
            plan = FaultPlan([spec])
            return [plan.fire("checkpoint.bytes") is not None for _ in range(50)]

        assert firing_pattern(3) == firing_pattern(3)
        assert firing_pattern(3) != firing_pattern(4)

    def test_match_filters_compare_stringified(self):
        plan = FaultPlan([FaultSpec("checkpoint.bytes", "corrupt", match={"section": "1"})])
        assert plan.fire("checkpoint.bytes", section=0) is None
        assert plan.fire("checkpoint.bytes", section=1) is not None

    def test_inject_restores_previous_plan(self):
        outer = faults.install_plan(FaultSpec("checkpoint.write", "fail"))
        with faults.inject(FaultSpec("checkpoint.bytes", "corrupt")) as inner:
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer

    def test_env_plan_cached_and_refreshed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "checkpoint.write:action=fail")
        first = faults.active_plan()
        assert first is faults.active_plan()  # cached on the raw string
        monkeypatch.setenv("REPRO_FAULTS", "checkpoint.bytes:action=corrupt")
        assert faults.active_plan().specs[0].site == "checkpoint.bytes"

    def test_fired_faults_counted_and_flight_recorded(self):
        from repro.obs.flight import default_recorder

        counter = global_registry().counter(
            "resilience.faults_injected", site="checkpoint.write", action="error"
        )
        before = counter.value
        with faults.inject(FaultSpec("checkpoint.write", "error")):
            with pytest.raises(FaultError):
                faults.fire("checkpoint.write", path="probe")
        assert counter.value == before + 1
        names = [span["name"] for span in default_recorder().record()["spans"]]
        assert "fault.injected" in names


SECTIONS = ("graph", "core", "warm", "cache", "stats")


def checkpointed_engine() -> StreamingAVTEngine:
    engine = StreamingAVTEngine(
        Graph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")])
    )
    engine.query(2, 1)
    return engine


def section_regions(path):
    """(start, length) byte regions per manifest section of a checkpoint."""
    with open(path, "rb") as handle:
        header = handle.readline()
        parts = header.split()
        manifest_len = int(parts[2])
        manifest = json.loads(handle.read(manifest_len))
    offset = len(header) + manifest_len
    regions = {}
    for section in manifest["sections"]:
        regions[section["name"]] = (offset, section["length"])
        offset += section["length"]
    return regions


class TestCheckpointVerification:
    def test_format2_round_trip(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path)
        restored = load_checkpoint(path)
        assert restored.to_state()["core"] == engine.to_state()["core"]
        assert restored.query(2, 1).anchors == engine.query(2, 1).anchors

    @pytest.mark.parametrize("section", SECTIONS)
    def test_bit_flip_names_damaged_section(self, tmp_path, section):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path)
        start, length = section_regions(path)[section]
        assert length > 0
        with open(path, "r+b") as handle:
            handle.seek(start + length // 2)
            byte = handle.read(1)
            handle.seek(start + length // 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(path)
        assert excinfo.value.section == section

    @pytest.mark.parametrize("section", SECTIONS)
    def test_injected_corruption_names_damaged_section(self, tmp_path, section):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        with faults.inject(
            FaultSpec("checkpoint.bytes", "corrupt", match={"section": section})
        ):
            save_checkpoint(engine, path)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(path)
        assert excinfo.value.section == section

    @pytest.mark.parametrize("section", SECTIONS)
    def test_truncation_names_damaged_section(self, tmp_path, section):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path)
        start, length = section_regions(path)[section]
        with open(path, "r+b") as handle:
            handle.truncate(start + max(0, length - 1))
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(path)
        # Truncating section S damages S itself; every later section is gone
        # too, but the reader must report the *first* damaged one.
        assert excinfo.value.section == section

    def test_manifest_corruption_detected(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        with faults.inject(FaultSpec("checkpoint.bytes", "corrupt", match={"section": "manifest"})):
            save_checkpoint(engine, path)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(path)
        assert excinfo.value.section == "manifest"

    def test_rotation_keeps_last_n(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        for _ in range(5):
            save_checkpoint(engine, path, keep=3)
        existing = [p for p in rotated_paths(path, 3) if p.exists()]
        assert [p.name for p in existing] == ["ck", "ck.1", "ck.2"]
        assert not (tmp_path / "ck.3").exists()
        for rotation in existing:
            assert read_state(rotation)["core"] == engine.to_state()["core"]

    def test_fallback_restores_newest_intact_rotation(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        save_checkpoint(engine, path, keep=2)
        start, length = section_regions(path)["core"]
        with open(path, "r+b") as handle:
            handle.seek(start)
            handle.write(b"\xff" * min(4, length))
        restored = load_checkpoint(path, fallback=True)
        assert restored.to_state()["core"] == engine.to_state()["core"]
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(path, fallback=False)

    def test_all_rotations_corrupt_reraises_first_error(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        save_checkpoint(engine, path, keep=2)
        for candidate in rotated_paths(path, 2):
            with open(candidate, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                handle.seek(size // 2)
                byte = handle.read(1)
                handle.seek(size // 2)
                handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, fallback=True)

    def test_flush_failure_fault_surfaces_as_checkpoint_error(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        with faults.inject(FaultSpec("checkpoint.write", "fail")):
            with pytest.raises(CheckpointError):
                save_checkpoint(engine, path)
        assert not path.exists()

    def test_failed_write_preserves_previous_rotation(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        with faults.inject(FaultSpec("checkpoint.write", "fail")):
            with pytest.raises(CheckpointError):
                save_checkpoint(engine, path, keep=2)
        # The last good checkpoint survived (as the rotated sibling).
        restored = load_checkpoint(path, fallback=True)
        assert restored.to_state()["core"] == engine.to_state()["core"]

    def test_legacy_format1_still_reads(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "legacy"
        envelope = {
            "magic": "repro-engine-checkpoint",
            "format": 1,
            "state": engine.to_state(),
        }
        with open(path, "wb") as handle:
            pickle.dump(envelope, handle, protocol=4)
        restored = load_checkpoint(path)
        assert restored.to_state()["core"] == engine.to_state()["core"]

    def test_keep_must_be_positive(self, tmp_path):
        engine = checkpointed_engine()
        with pytest.raises(ParameterError):
            save_checkpoint(engine, tmp_path / "ck", keep=0)

    def test_foreign_file_is_plain_checkpoint_error(self, tmp_path):
        path = tmp_path / "foreign"
        path.write_bytes(b"this is not a checkpoint at all")
        with pytest.raises(CheckpointError) as excinfo:
            read_state(path)
        assert not isinstance(excinfo.value, CheckpointCorruptionError)
