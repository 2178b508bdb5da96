"""Checkpoint recovery: digest-verified checkpoints and rotated fallback.

A restarted server must never resume from silently damaged state.  Engine
checkpoints carry a SHA-256 digest per section, so a flipped byte is caught
*before* anything is unpickled, and ``keep=N`` rotation leaves an older
intact file to fall back to.  This example:

1. replays a small dataset through a :class:`StreamingAVTEngine`,
2. saves two rotated checkpoints and flips one byte of the newest,
3. watches the digest verification name the damaged section, then restores
   from the rotated sibling and checks the core numbers survived.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import StreamingAVTEngine, load_dataset
from repro.engine.checkpoint import load_checkpoint, read_state, save_checkpoint
from repro.errors import CheckpointCorruptionError

DATASET = "eu_core"
K = 4
BUDGET = 3


def replay(engine: StreamingAVTEngine, evolving) -> None:
    """Replay every delta with a query after each one."""
    result = engine.query(K, BUDGET)
    print(f"  t=0 anchors={list(result.anchors)} followers={result.num_followers}")
    for step, delta in enumerate(evolving.deltas, start=1):
        engine.ingest(delta)
        result = engine.query(K, BUDGET)
        print(f"  t={step} anchors={list(result.anchors)} followers={result.num_followers}")


def main() -> None:
    evolving = load_dataset(DATASET, num_snapshots=3, scale=0.3)
    engine = StreamingAVTEngine(evolving.base)
    print(f"Replaying {DATASET} on backend={engine.backend}:")
    replay(engine, evolving)

    print("\nCheckpoint verification and fallback:")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "engine.ckpt"
        save_checkpoint(engine, path, keep=2)
        save_checkpoint(engine, path, keep=2)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # one flipped byte mid-file
        path.write_bytes(bytes(raw))
        try:
            read_state(path)
            print("  newest checkpoint verified intact")
        except CheckpointCorruptionError as error:
            print(f"  corruption detected in section {error.section!r}: digest mismatch")
        restored = load_checkpoint(path, fallback=True)
        match = restored.core_numbers() == engine.core_numbers()
        print(f"  restored an intact rotation; core numbers match: {match}")


if __name__ == "__main__":
    main()
