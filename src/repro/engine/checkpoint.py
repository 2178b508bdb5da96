"""Verified checkpoint persistence for the streaming engine.

A checkpoint captures everything a restarted server needs to resume without
recomputation: the live graph, the maintained core numbers, the graph-version
counter, the warm anchor states, the result-cache contents and the stats
counters.  Vertex identifiers are arbitrary hashables, which rules out JSON
without inventing a vertex codec — the payload stays :mod:`pickle`.  Only
load checkpoints you wrote yourself; this is server state, not an
interchange format.

Format 3, the only one written and read, is *verified*: the file opens
with an ASCII header line naming the format and the manifest digest,
followed by a JSON manifest listing every section (name, byte length,
SHA-256) and then the pickled section blobs back to back::

    repro-engine-checkpoint 3 <manifest-bytes> <manifest-sha256>\\n
    {"format": 3, "sections": [{"name": "graph", ...}, ...]}
    <graph blob><core blob><engine blob><warm blob><cache blob><stats blob>

:func:`read_state` verifies the manifest against the header digest and every
section against its manifest digest *before* unpickling anything, so a
truncated or bit-flipped file surfaces as a
:class:`~repro.errors.CheckpointCorruptionError` naming the damaged section
— never as an arbitrary unpickling exception deep inside restore.  Format 3
differs from format 2 only in what its cached results pickle: a plain
:class:`~repro.anchored.result.SolverStats` dataclass.  A format-2 header,
or a file with no header (format 1, a single pickled envelope), is refused
with a plain :class:`~repro.errors.CheckpointError` naming what was found,
and :func:`load_checkpoint` falls back past it like past any unreadable
file.

Rotation and fallback: :func:`save_checkpoint` with ``keep=N`` shifts the
previous file to ``<path>.1`` (and so on, keeping the newest ``N``);
:func:`load_checkpoint` falls back to the newest intact rotated sibling when
the primary is corrupted, logging an error for each one it skipped.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.backends import BACKEND_AUTO, ExecutionBackend
from repro.errors import CheckpointCorruptionError, CheckpointError, require_int
from repro.obs import tracer

logger = logging.getLogger("repro.engine.checkpoint")

PathLike = Union[str, Path]

CHECKPOINT_MAGIC = "repro-engine-checkpoint"
CHECKPOINT_FORMAT = 3

_MAGIC_PREFIX = (CHECKPOINT_MAGIC + " ").encode("ascii")
_MAX_HEADER = 256

#: Section layout: every state key belongs to exactly one named section so a
#: digest mismatch can say *what* is damaged.  Keys not listed here land in
#: the ``engine`` section (forward compatibility: a newer writer's extra keys
#: ride along and ``from_snapshot``-style readers ignore what they don't
#: know).
_SECTION_KEYS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("graph", ("vertices", "edges")),
    ("core", ("core",)),
    ("warm", ("warm",)),
    ("cache", ("cache",)),
    ("stats", ("stats",)),
)
_ENGINE_SECTION = "engine"


def _split_sections(state: Dict[str, Any]) -> List[Tuple[str, Dict[str, Any]]]:
    """Partition a state dict into the named checkpoint sections."""
    remaining = dict(state)
    sections: List[Tuple[str, Dict[str, Any]]] = []
    for name, keys in _SECTION_KEYS:
        payload = {key: remaining.pop(key) for key in keys if key in remaining}
        sections.append((name, payload))
    sections.append((_ENGINE_SECTION, remaining))
    return sections


def write_state(state: Dict[str, Any], path: PathLike) -> None:
    """Serialise an engine state dict to ``path`` (atomically via a temp file).

    Every section is pickled separately and digested; the manifest and its
    own digest go first so readers can verify before deserialising.
    """
    path = Path(path)
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        blobs: List[bytes] = []
        manifest_sections: List[Dict[str, Any]] = []
        for name, payload in _split_sections(state):
            blob = pickle.dumps(payload, protocol=4)
            blobs.append(blob)
            manifest_sections.append(
                {
                    "name": name,
                    "length": len(blob),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        manifest = json.dumps(
            {"format": CHECKPOINT_FORMAT, "sections": manifest_sections},
            sort_keys=True,
        ).encode("ascii")
        header = (
            f"{CHECKPOINT_MAGIC} {CHECKPOINT_FORMAT} {len(manifest)} "
            f"{hashlib.sha256(manifest).hexdigest()}\n"
        ).encode("ascii")
        with open(tmp_path, "wb") as handle:
            handle.write(header)
            handle.write(manifest)
            for blob in blobs:
                handle.write(blob)
        tmp_path.replace(path)
    except Exception as error:  # OSError, or pickling failures of exotic vertices
        raise CheckpointError(f"cannot write checkpoint to {path}: {error}") from error
    finally:
        if tmp_path.exists():
            tmp_path.unlink()


def _manifest_entries(path: Path, manifest_bytes: bytes) -> List[Dict[str, Any]]:
    """Decode a digest-verified manifest and check the shape of its sections.

    A matching digest proves the bytes are the ones written, not that the
    writer wrote a well-formed manifest, so a bad shape is reported as a
    corrupted ``manifest`` section rather than escaping as a raw exception.
    """
    try:
        entries = json.loads(manifest_bytes)["sections"]
    except (ValueError, KeyError, TypeError) as error:
        raise CheckpointCorruptionError(
            path, "manifest", f"undecodable manifest: {error}"
        ) from error
    if not isinstance(entries, list):
        raise CheckpointCorruptionError(
            path, "manifest", f"sections is {type(entries).__name__}, not a list"
        )
    for entry in entries:
        length = entry.get("length") if isinstance(entry, dict) else None
        if not (
            isinstance(length, int)
            and not isinstance(length, bool)
            and length >= 0
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("sha256"), str)
        ):
            raise CheckpointCorruptionError(
                path, "manifest", f"malformed section entry {entry!r}"
            )
    return entries


def read_state(path: PathLike) -> Dict[str, Any]:
    """Read and digest-verify an engine state dict from ``path``.

    Raises :class:`CheckpointCorruptionError` (naming the damaged section)
    when any digest disagrees or the file is truncated; plain
    :class:`CheckpointError` for missing/foreign files and for any format
    other than :data:`CHECKPOINT_FORMAT`.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint file not found: {path}")
    try:
        handle = open(path, "rb")
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    with handle:
        header = handle.readline(_MAX_HEADER)
        if not header.startswith(_MAGIC_PREFIX):
            # A format-1 checkpoint (one pickled envelope) or a foreign file.
            raise CheckpointError(
                f"{path} has no checkpoint header (format 1 or not a repro "
                f"engine checkpoint); expected format {CHECKPOINT_FORMAT}"
            )
        if not header.endswith(b"\n"):
            raise CheckpointCorruptionError(path, "header", "unterminated header line")
        parts = header.decode("ascii", "replace").split()
        if len(parts) != 4:
            raise CheckpointCorruptionError(
                path, "header", f"expected 4 header fields, got {len(parts)}"
            )
        if parts[1] != str(CHECKPOINT_FORMAT):
            raise CheckpointError(
                f"checkpoint {path} has format {parts[1]!r}; only format "
                f"{CHECKPOINT_FORMAT} is supported"
            )
        try:
            manifest_len = int(parts[2])
        except ValueError:
            raise CheckpointCorruptionError(
                path, "header", f"non-numeric manifest length {parts[2]!r}"
            ) from None
        manifest_bytes = handle.read(manifest_len)
        if len(manifest_bytes) != manifest_len:
            raise CheckpointCorruptionError(
                path,
                "manifest",
                f"truncated: expected {manifest_len} bytes, got {len(manifest_bytes)}",
            )
        digest = hashlib.sha256(manifest_bytes).hexdigest()
        if digest != parts[3]:
            raise CheckpointCorruptionError(
                path, "manifest", f"digest mismatch ({digest[:12]}… != {parts[3][:12]}…)"
            )
        entries = _manifest_entries(path, manifest_bytes)
        state: Dict[str, Any] = {}
        for entry in entries:
            name = entry["name"]
            length = entry["length"]
            blob = handle.read(length)
            if len(blob) != length:
                raise CheckpointCorruptionError(
                    path,
                    name,
                    f"truncated: expected {length} bytes, got {len(blob)}",
                )
            digest = hashlib.sha256(blob).hexdigest()
            if digest != entry["sha256"]:
                raise CheckpointCorruptionError(
                    path,
                    name,
                    f"digest mismatch ({digest[:12]}… != {entry['sha256'][:12]}…)",
                )
            try:
                payload = pickle.loads(blob)
            except Exception as error:  # digest passed but payload undecodable
                raise CheckpointCorruptionError(
                    path, name, f"undecodable payload: {error}"
                ) from error
            if not isinstance(payload, dict):
                raise CheckpointCorruptionError(
                    path, name, f"section payload is {type(payload).__name__}, not dict"
                )
            state.update(payload)
    if not state:
        raise CheckpointError(f"checkpoint {path} carries no state payload")
    return state


def rotated_paths(path: PathLike, keep: int) -> List[Path]:
    """The rotation chain for ``path``: ``[path, path.1, ..., path.<keep-1>]``."""
    path = Path(path)
    return [path] + [path.with_name(f"{path.name}.{i}") for i in range(1, keep)]


def _rotate(path: Path, keep: int) -> None:
    """Shift existing checkpoints down the chain, dropping the oldest.

    Raises :class:`CheckpointError` naming ``path`` when a file cannot be
    dropped or moved (for example, a directory sits in the chain).
    """
    chain = rotated_paths(path, keep)
    try:
        if chain[-1].exists():
            chain[-1].unlink()
        for index in range(len(chain) - 1, 0, -1):
            if chain[index - 1].exists():
                chain[index - 1].replace(chain[index])
    except OSError as error:
        raise CheckpointError(f"cannot rotate checkpoints of {path}: {error}") from error


def save_checkpoint(engine: Any, path: PathLike, keep: int = 1) -> None:
    """Persist ``engine`` (a :class:`StreamingAVTEngine`) to ``path``.

    With ``keep > 1`` the previous checkpoint survives as ``<path>.1`` (and
    so on, newest-first) — the rotation happens *before* the write, so a
    write failure never destroys the last good checkpoint, and
    :func:`load_checkpoint` can fall back down the chain.  A rotation that
    fails raises :class:`CheckpointError` and writes nothing.
    """
    require_int("keep", keep, 1)
    path = Path(path)
    with tracer.span("engine.checkpoint.save") as save_span:
        if keep > 1:
            _rotate(path, keep)
        write_state(engine.to_state(), path)
        save_span.set(path=str(path), keep=keep)
    engine.stats.checkpoints_saved += 1
    logger.info(
        "checkpoint saved to %s (version=%d, %d vertices)",
        path,
        engine.graph_version,
        engine.graph.num_vertices,
    )


def load_checkpoint(
    path: PathLike,
    fallback: bool = True,
    *,
    backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
    **engine_kwargs: Any,
) -> Any:
    """Rebuild a :class:`StreamingAVTEngine` from a checkpoint file.

    The engine runs on ``backend``, as the constructor's ``backend=``: a
    checkpoint stores none.  ``engine_kwargs`` replace persisted
    construction-time settings (e.g. ``cache_capacity`` to resize on
    restore; see :meth:`StreamingAVTEngine.from_state`).

    With ``fallback`` (the default) a corrupted or unreadable primary falls
    back to the newest intact rotated sibling (``<path>.1``, ``<path>.2``,
    …), logging an error naming each checkpoint skipped; the original error
    is re-raised only when every candidate fails.
    """
    from repro.engine.engine import StreamingAVTEngine

    primary = Path(path)
    candidates = [primary]
    if fallback:
        index = 1
        while True:
            sibling = primary.with_name(f"{primary.name}.{index}")
            if not sibling.exists():
                break
            candidates.append(sibling)
            index += 1
    first_error: Optional[CheckpointError] = None
    with tracer.span("engine.checkpoint.restore") as restore_span:
        for candidate in candidates:
            try:
                state = read_state(candidate)
                engine = StreamingAVTEngine.from_state(state, backend=backend, **engine_kwargs)
            except CheckpointError as error:
                if first_error is None:
                    first_error = error
                if len(candidates) > 1:
                    logger.error(
                        "checkpoint %s unusable (%s); trying next rotation",
                        candidate,
                        error,
                    )
                continue
            if candidate is not primary:
                logger.warning(
                    "restored from rotated checkpoint %s (primary %s was unusable)",
                    candidate,
                    primary,
                )
            restore_span.set(
                path=str(candidate),
                version=engine.graph_version,
                fallback=candidate is not primary,
            )
            engine.stats.checkpoints_restored += 1
            logger.info(
                "checkpoint restored from %s (version=%d, %d vertices, backend=%s)",
                candidate,
                engine.graph_version,
                engine.graph.num_vertices,
                engine.backend,
            )
            return engine
    assert first_error is not None
    raise first_error
