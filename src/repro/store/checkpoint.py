"""Atomic, checksummed, versioned checkpoints of index state.

One checkpoint is one directory under ``<data-dir>/checkpoints``::

    checkpoints/
      ckpt-00000001/
        manifest.json      format version, epoch, doc count, scheme,
                           WAL position, per-array CRC32 + shape + dtype
        base_U.npy ...     one .npy file per array

The write protocol makes a checkpoint appear atomically even across a
crash: every array is written into a ``.tmp`` sibling directory and
fsynced, the manifest (written last) is fsynced, the directory is
renamed to its final ``ckpt-<id>`` name, and the parent directory is
fsynced.  A reader therefore either sees a complete checkpoint or none;
leftover ``.tmp`` directories are garbage from a crash and are skipped
(and reaped) by :func:`list_checkpoints`.

Arrays are stored as individual ``.npy`` files rather than one ``.npz``
so read-only serving replicas can open them with
``np.load(mmap_mode="r")`` (:mod:`repro.store.mmap_io`) — zero-copy,
O(file-count) open time.  Each file's CRC32 (over the complete ``.npy``
bytes, header included) lives in the manifest, so ``repro store
verify`` detects any single flipped byte.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.core.persistence import fsync_directory
from repro.errors import StoreCorruptError, StoreError

__all__ = [
    "CHECKPOINT_FORMAT",
    "SUPPORTED_CHECKPOINT_FORMATS",
    "MANIFEST_NAME",
    "CHECKPOINTS_DIR",
    "CheckpointInfo",
    "checkpoint_name",
    "write_checkpoint",
    "load_manifest",
    "checkpoint_info",
    "verify_checkpoint",
    "read_arrays",
    "checkpoint_dirs",
    "list_checkpoints",
    "newest_checkpoint",
    "latest_valid_checkpoint",
    "checkpoint_bytes",
]

#: Format history — readers accept every version in
#: :data:`SUPPORTED_CHECKPOINT_FORMATS`, writers emit the newest:
#:
#: 1. base factors + serving ``V`` + raw matrix + pending block;
#: 2. adds the optional ANN coarse-quantizer arrays (``ann_centroids``,
#:    ``ann_indptr``, ``ann_docs``) and an ``ann`` meta block.  All
#:    format-1 arrays are unchanged, so a v1 checkpoint loads cleanly —
#:    serving simply falls back to the exact scan;
#: 3. ``model_V`` is written only when the serving ``V`` is not the
#:    base's (documents pending); without it the serving model reads
#:    ``base_V``, so ``V`` is on disk and in memory once.  A v1/v2
#:    checkpoint, which always carries both, opens unchanged.
CHECKPOINT_FORMAT = 3
SUPPORTED_CHECKPOINT_FORMATS = (1, 2, 3)
MANIFEST_NAME = "manifest.json"
#: Name of the checkpoints directory inside a store data directory.
CHECKPOINTS_DIR = "checkpoints"

_PREFIX = "ckpt-"
_CRC_CHUNK = 1 << 20


@dataclass(frozen=True)
class CheckpointInfo:
    """One on-disk checkpoint: its directory, id, and parsed manifest."""

    path: pathlib.Path
    checkpoint_id: int
    manifest: dict

    @property
    def meta(self) -> dict:
        """The caller-supplied metadata block (epoch, doc count, ...)."""
        return self.manifest.get("meta", {})


def checkpoint_name(checkpoint_id: int) -> str:
    """Directory name for checkpoint ``checkpoint_id`` (sorts by id)."""
    return f"{_PREFIX}{checkpoint_id:08d}"


def _parse_id(name: str) -> int | None:
    if not name.startswith(_PREFIX):
        return None
    try:
        return int(name[len(_PREFIX):])
    except ValueError:
        return None


def _file_crc32(path: pathlib.Path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CRC_CHUNK)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def _write_fsynced(path: pathlib.Path, writer) -> None:
    with open(path, "wb") as fh:
        writer(fh)
        fh.flush()
        os.fsync(fh.fileno())


def write_checkpoint(
    root: pathlib.Path,
    arrays: Mapping[str, np.ndarray],
    meta: dict,
    *,
    checkpoint_id: int | None = None,
) -> CheckpointInfo:
    """Write one checkpoint atomically; returns its :class:`CheckpointInfo`.

    ``meta`` is the caller's JSON-serializable state block (epoch, doc
    count, scheme, WAL position, labellings); it is stored verbatim
    under the manifest's ``meta`` key next to the integrity data this
    module owns.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    if checkpoint_id is None:
        existing = checkpoint_dirs(root)
        checkpoint_id = _parse_id(existing[-1].name) + 1 if existing else 1
    final = root / checkpoint_name(checkpoint_id)
    if final.exists():
        raise StoreError(f"checkpoint {final} already exists")
    tmp = root / (final.name + ".tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir()
    try:
        entries: dict[str, dict] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            file = tmp / f"{name}.npy"
            _write_fsynced(file, lambda fh, a=array: np.save(fh, a))
            entries[name] = {
                "file": file.name,
                "bytes": file.stat().st_size,
                "crc32": _file_crc32(file),
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "checkpoint_id": checkpoint_id,
            "created_unix": time.time(),
            "arrays": entries,
            "meta": dict(meta),
        }
        blob = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        _write_fsynced(tmp / MANIFEST_NAME, lambda fh: fh.write(blob))
        fsync_directory(tmp)
        os.rename(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    fsync_directory(root)
    return CheckpointInfo(final, checkpoint_id, manifest)


def load_manifest(path: pathlib.Path) -> dict:
    """Parse a checkpoint directory's manifest (corruption → error)."""
    path = pathlib.Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text("utf-8"))
    except FileNotFoundError:
        raise StoreError(f"{path} has no {MANIFEST_NAME}") from None
    except (OSError, ValueError) as exc:
        raise StoreCorruptError(f"unreadable manifest in {path}: {exc}") from exc
    if not isinstance(manifest, dict) or "arrays" not in manifest:
        raise StoreCorruptError(f"malformed manifest in {path}")
    if manifest.get("format") not in SUPPORTED_CHECKPOINT_FORMATS:
        raise StoreError(
            f"unsupported checkpoint format {manifest.get('format')} in {path}"
        )
    return manifest


def checkpoint_info(path: pathlib.Path) -> CheckpointInfo:
    """Parse the one checkpoint directory ``path`` (the single place a
    manifest is read; everything downstream takes the parsed info)."""
    path = pathlib.Path(path)
    checkpoint_id = _parse_id(path.name)
    if checkpoint_id is None:
        raise StoreError(f"{path} is not a checkpoint directory")
    return CheckpointInfo(path, checkpoint_id, load_manifest(path))


def verify_checkpoint(info: CheckpointInfo) -> list[str]:
    """Integrity-check one checkpoint; returns problems (empty = valid).

    Every array file is re-read and its CRC32 compared against the
    already-parsed manifest — a single flipped byte anywhere in an array
    payload or ``.npy`` header surfaces as a problem string.  (A manifest
    that does not parse never becomes a :class:`CheckpointInfo`:
    :func:`load_manifest` raises and :func:`list_checkpoints` skips it.)
    """
    path = info.path
    problems = []
    for name, entry in sorted(info.manifest["arrays"].items()):
        file = path / entry["file"]
        if not file.is_file():
            problems.append(f"{path.name}: missing array file {entry['file']}")
            continue
        size = file.stat().st_size
        if size != entry["bytes"]:
            problems.append(
                f"{path.name}/{entry['file']}: size {size} != "
                f"recorded {entry['bytes']}"
            )
            continue
        crc = _file_crc32(file)
        if crc != entry["crc32"]:
            problems.append(
                f"{path.name}/{entry['file']}: crc32 {crc:#010x} != "
                f"recorded {entry['crc32']:#010x}"
            )
    return problems


def read_arrays(
    info: CheckpointInfo, *, mmap: bool = False
) -> dict[str, np.ndarray]:
    """Load every array of a checkpoint, optionally memory-mapped.

    Reads only — verification is the locate step's job
    (:func:`latest_valid_checkpoint`); the store's door
    (:func:`repro.store.recovery.open_checkpoint`) runs both, in order.
    """
    path = info.path
    arrays: dict[str, np.ndarray] = {}
    for name, entry in info.manifest["arrays"].items():
        try:
            arrays[name] = np.load(
                path / entry["file"], mmap_mode="r" if mmap else None
            )
        except Exception as exc:
            raise StoreCorruptError(
                f"cannot load array {name!r} from {path}: {exc}"
            ) from exc
    return arrays


def checkpoint_dirs(root: pathlib.Path) -> list[pathlib.Path]:
    """The ``ckpt-<id>`` directories under ``root``, ascending by id,
    without reading a manifest.  Incomplete ``.tmp`` directories (crash
    debris) are removed on the way."""
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        if entry.name.endswith(".tmp"):
            shutil.rmtree(entry, ignore_errors=True)
        elif _parse_id(entry.name) is not None and entry.is_dir():
            found.append(entry)
    return sorted(found, key=lambda entry: _parse_id(entry.name))


def _parsed(entries: Iterable[pathlib.Path]) -> Iterator[CheckpointInfo]:
    """Each directory's :class:`CheckpointInfo`, its manifest read only
    when the caller reaches it; one that cannot be parsed is skipped."""
    for entry in entries:
        try:
            yield checkpoint_info(entry)
        except StoreError:
            continue


def list_checkpoints(root: pathlib.Path) -> list[CheckpointInfo]:
    """All complete checkpoints under ``root``, ascending by id."""
    return list(_parsed(checkpoint_dirs(root)))


def newest_checkpoint(root: pathlib.Path) -> CheckpointInfo | None:
    """The newest checkpoint's parsed manifest, **unverified** — for
    readers that only want a number off it (the standby's epoch tail)."""
    return next(_parsed(reversed(checkpoint_dirs(root))), None)


def latest_valid_checkpoint(
    root: pathlib.Path,
) -> tuple[CheckpointInfo | None, list[str]]:
    """Newest checkpoint that passes verification, plus skip diagnostics.

    Walks newest → oldest so recovery degrades gracefully: a corrupt
    latest checkpoint costs replaying a longer WAL suffix from the
    previous one, not the whole index.  Only the manifests it walks past
    are parsed, and the returned checkpoint has been CRC-read once.
    """
    problems: list[str] = []
    for info in _parsed(reversed(checkpoint_dirs(root))):
        bad = verify_checkpoint(info)
        if not bad:
            return info, problems
        problems.extend(bad)
    return None, problems


def checkpoint_bytes(info: CheckpointInfo) -> int:
    """Total on-disk array bytes of one checkpoint (manifest excluded)."""
    return sum(int(e["bytes"]) for e in info.manifest["arrays"].values())
