"""Tests for the verified checkpoint format.

Covers per-section digest detection, manifest validation, rotation,
fallback restore and failed writes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path

import pytest

from repro.anchored.result import SolverStats
from repro.engine import StreamingAVTEngine
from repro.engine.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_MAGIC,
    load_checkpoint,
    read_state,
    rotated_paths,
    save_checkpoint,
    write_state,
)
from repro.errors import CheckpointCorruptionError, CheckpointError, ParameterError
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph
from tests.conftest import flip_section_byte, section_regions


SECTIONS = ("graph", "core", "warm", "cache", "stats")


def checkpointed_engine() -> StreamingAVTEngine:
    engine = StreamingAVTEngine(
        Graph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e")])
    )
    engine.query(2, 1)
    return engine


def fail_temp_file_rename(monkeypatch) -> None:
    """Make the rename that publishes a written checkpoint fail.

    The temp file is complete by then, so this is the last step a full disk
    or a dead network mount can fail.
    """
    real_replace = Path.replace

    def replace(self, target):
        if self.name.endswith(".tmp"):
            raise OSError("simulated flush failure")
        return real_replace(self, target)

    monkeypatch.setattr(Path, "replace", replace)


def write_manifest_only(path, manifest) -> None:
    """Write a checkpoint file whose header digest matches ``manifest``."""
    manifest_bytes = json.dumps(manifest).encode("ascii")
    header = (
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_FORMAT} {len(manifest_bytes)} "
        f"{hashlib.sha256(manifest_bytes).hexdigest()}\n"
    ).encode("ascii")
    Path(path).write_bytes(header + manifest_bytes)


#: Manifests with a correct digest but a shape ``write_state`` never writes.
MALFORMED_MANIFESTS = {
    "entry-without-length": {"sections": [{"name": "graph"}]},
    "sections-not-a-list": {"sections": 5},
    "entry-not-an-object": {"sections": [5]},
    "string-length": {"sections": [{"name": "graph", "length": "3", "sha256": "0" * 64}]},
}


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
        flip_section_byte(path, section)
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
        save_checkpoint(engine, path)
        flip_section_byte(path, "manifest")
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(path)
        assert excinfo.value.section == "manifest"

    @pytest.mark.parametrize(
        "manifest", MALFORMED_MANIFESTS.values(), ids=MALFORMED_MANIFESTS.keys()
    )
    def test_malformed_manifest_names_manifest(self, tmp_path, manifest):
        path = tmp_path / "ck"
        write_manifest_only(path, manifest)
        with pytest.raises(CheckpointCorruptionError) as excinfo:
            read_state(path)
        assert excinfo.value.section == "manifest"

    def test_malformed_manifest_falls_back_to_intact_rotation(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        save_checkpoint(engine, path, keep=2)
        write_manifest_only(path, MALFORMED_MANIFESTS["entry-without-length"])
        restored = load_checkpoint(path, fallback=True)
        assert restored.to_state()["core"] == engine.to_state()["core"]

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

    def test_flush_failure_fault_surfaces_as_checkpoint_error(self, tmp_path, monkeypatch):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        fail_temp_file_rename(monkeypatch)
        with pytest.raises(CheckpointError):
            save_checkpoint(engine, path)
        assert not path.exists()
        assert not path.with_name("ck.tmp").exists()

    def test_failed_write_preserves_previous_rotation(self, tmp_path, monkeypatch):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        fail_temp_file_rename(monkeypatch)
        with pytest.raises(CheckpointError):
            save_checkpoint(engine, path, keep=2)
        assert not path.exists()
        assert not path.with_name("ck.tmp").exists()
        # The last good checkpoint survived (as the rotated sibling).
        restored = load_checkpoint(path, fallback=True)
        assert restored.to_state()["core"] == engine.to_state()["core"]

    def test_failed_rotation_is_a_checkpoint_error(self, tmp_path):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        before = load_checkpoint(path).to_state()
        blocker = path.with_name("ck.1")
        blocker.mkdir()
        (blocker / "occupied").write_text("not a checkpoint")
        engine.ingest_insert("e", "a")
        engine.flush()
        with pytest.raises(CheckpointError, match="ck"):
            engine.checkpoint(path, keep=2)
        assert not path.with_name("ck.tmp").exists()
        # Nothing was written: the earlier checkpoint is still the primary.
        restored = StreamingAVTEngine.restore(path)
        assert restored.graph_version == before["version"]
        assert restored.to_state()["core"] == before["core"]
        assert not restored.graph.has_edge("e", "a")

    def test_format1_and_format2_files_are_refused(self, tmp_path):
        # Only format 3 is read.  A format-1 envelope (no header) and a
        # format-2 header each raise a plain CheckpointError, and a restore
        # falls back past them to the rotated format-3 sibling.
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        save_checkpoint(engine, path, keep=2)
        save_checkpoint(engine, path, keep=2)
        envelope = {"magic": CHECKPOINT_MAGIC, "format": 1, "state": engine.to_state()}
        header = f"{CHECKPOINT_MAGIC} {CHECKPOINT_FORMAT} ".encode("ascii")
        old_files = {
            "format 1": pickle.dumps(envelope, protocol=4),
            "format '2'": path.read_bytes().replace(
                header, f"{CHECKPOINT_MAGIC} 2 ".encode("ascii"), 1
            ),
        }
        for found, payload in old_files.items():
            path.write_bytes(payload)
            with pytest.raises(CheckpointError, match=found) as excinfo:
                read_state(path)
            assert not isinstance(excinfo.value, CheckpointCorruptionError)
            with pytest.raises(CheckpointError, match=found):
                load_checkpoint(path, fallback=False)
            restored = load_checkpoint(path)
            assert restored.to_state()["core"] == engine.to_state()["core"]

    def test_round_trip_restores_every_cached_stat(self, tmp_path):
        """Graph, cores, version, warm states, cached results with their
        stats (field by field, ``commit_seconds`` included) and the engine's
        stats all survive a checkpoint."""
        engine = StreamingAVTEngine(chung_lu_graph(80, 240, skew=1.2, seed=5), batch_size=None)
        engine.query(3, 2)
        low = sorted(vertex for vertex, core in engine.core_numbers().items() if core <= 2)
        engine.ingest_insert(low[0], low[1])
        engine.ingest_insert(low[2], low[3])
        engine.query(3, 2)
        engine.query(3, 2)
        engine.query(3, 3)
        assert (engine.stats.cold_solves, engine.stats.warm_solves) == (2, 1)
        path = tmp_path / "ck"
        engine.checkpoint(path)
        restored = load_checkpoint(path)

        assert restored.graph == engine.graph
        assert restored.core_numbers() == engine.core_numbers()
        assert restored.graph_version == engine.graph_version
        assert restored.to_state()["warm"] == engine.to_state()["warm"]
        cached = dict(engine.cache.items())
        restored_cached = dict(restored.cache.items())
        assert list(restored_cached) == list(cached)
        for key, result in cached.items():
            for item in dataclasses.fields(SolverStats):
                expected = getattr(result.stats, item.name)
                assert getattr(restored_cached[key].stats, item.name) == expected, item.name
            assert restored_cached[key] == result
        assert any(result.stats.commit_seconds for result in cached.values())
        # The file was written before the save was counted, and the restore
        # counts itself.
        assert restored.stats == dataclasses.replace(
            engine.stats, checkpoints_saved=0, checkpoints_restored=1
        )
        for name in ("hit", "warm", "cold", "update"):
            assert (
                restored.stats.latency_histogram(name).to_metric()
                == engine.stats.latency_histogram(name).to_metric()
            )

    def test_keep_must_be_positive(self, tmp_path):
        engine = checkpointed_engine()
        with pytest.raises(ParameterError):
            save_checkpoint(engine, tmp_path / "ck", keep=0)

    @pytest.mark.parametrize("keep", [2.5, "2", None, True])
    def test_keep_must_be_an_integer(self, tmp_path, keep):
        engine = checkpointed_engine()
        path = tmp_path / "ck"
        with pytest.raises(ParameterError):
            save_checkpoint(engine, path, keep=keep)
        with pytest.raises(ParameterError):
            engine.checkpoint(path, keep=keep)
        assert not path.exists()

    def test_foreign_file_is_plain_checkpoint_error(self, tmp_path):
        path = tmp_path / "foreign"
        path.write_bytes(b"this is not a checkpoint at all")
        with pytest.raises(CheckpointError) as excinfo:
            read_state(path)
        assert not isinstance(excinfo.value, CheckpointCorruptionError)
