"""A reader of the store format written from ``FORMAT.md`` alone.

It imports nothing from ``repro``: only ``json``, ``zlib``, ``struct``,
``base64`` and ``numpy.lib.format``.  ``tests/test_store_format.py``
holds what it reads to what the package reads, so a change to the
format that ``FORMAT.md`` does not describe fails there.
"""

import base64
import json
import pathlib
import struct
import zlib

import numpy as np
from numpy.lib import format as npy

FORMAT = 4
MAGIC = b"RPWAL001"
HEADER = struct.Struct("<8sQ")
FRAME = struct.Struct("<II")
MAX_LENGTH = 1 << 31


def _crc32(path: pathlib.Path) -> int:
    return zlib.crc32(path.read_bytes()) & 0xFFFFFFFF


def _manifest(path: pathlib.Path):
    """The parsed manifest of a checkpoint directory, or None if it is
    not a readable, format-4, intact checkpoint."""
    try:
        manifest = json.loads((path / "manifest.json").read_text("utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT:
        return None
    for entry in manifest["arrays"].values():
        file = path / entry["file"]
        if not file.is_file() or file.stat().st_size != entry["bytes"]:
            return None
        if _crc32(file) != entry["crc32"]:
            return None
    return manifest


def newest_checkpoint(store: pathlib.Path):
    """``(directory, manifest)`` of the newest valid checkpoint."""
    dirs = []
    for entry in (pathlib.Path(store) / "checkpoints").iterdir():
        name = entry.name
        if entry.is_dir() and name.startswith("ckpt-") and name[5:].isdigit():
            dirs.append((int(name[5:]), entry))
    for _, path in sorted(dirs, reverse=True):
        manifest = _manifest(path)
        if manifest is not None:
            return path, manifest
    raise ValueError(f"{store} has no valid checkpoint")


def read_checkpoint(store: pathlib.Path) -> dict:
    """The newest valid checkpoint: its arrays and meta, the serving
    model, the consolidated model, and the ids cut from ``doc_ids``."""
    path, manifest = newest_checkpoint(store)
    arrays = {}
    for name, entry in manifest["arrays"].items():
        with open(path / entry["file"], "rb") as fh:
            array = npy.read_array(fh)
        assert list(array.shape) == entry["shape"], name
        assert str(array.dtype) == entry["dtype"], name
        arrays[name] = array
    meta = manifest["meta"]
    doc_ids = meta["doc_ids"]
    cut = len(doc_ids) - arrays["pending"].shape[1]
    common = {
        "global_weights": arrays["base_gw"],
        "vocabulary": meta["vocabulary"],
        "scheme": (meta["model_scheme"]["local"], meta["model_scheme"]["global"]),
    }
    model = {
        name: arrays.get(f"model_{name}", arrays[f"base_{name}"])
        for name in ("U", "s", "V")
    }
    base = {name: arrays[f"base_{name}"] for name in ("U", "s", "V")}
    return {
        "name": path.name,
        "format": manifest["format"],
        "arrays": arrays,
        "meta": meta,
        "model": {
            **model, **common,
            "doc_ids": doc_ids, "provenance": meta["provenance"],
        },
        "base": {
            **base, **common,
            "doc_ids": doc_ids[:cut], "provenance": meta["base_provenance"],
        },
        "tdm_doc_ids": doc_ids[:cut],
        "pending_ids": doc_ids[cut:],
    }


def decode_array(obj: dict) -> np.ndarray:
    """The log's array codec: a dense or a sparse body."""
    dtype = np.dtype(obj["dtype"])
    shape = tuple(int(d) for d in obj["shape"])
    if "data" in obj:
        raw = base64.b64decode(obj["data"])
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    flat = np.zeros(int(np.prod(shape, dtype=np.int64)), dtype=dtype)
    positions = np.frombuffer(base64.b64decode(obj["indices"]), dtype="<i8")
    flat[positions] = np.frombuffer(base64.b64decode(obj["values"]), dtype=dtype)
    return flat.reshape(shape)


def read_wal(path: pathlib.Path) -> tuple[int, list[dict]]:
    """``(base LSN, records)``: each record is its payload object with
    every array decoded, read up to the first bad frame."""
    blob = pathlib.Path(path).read_bytes()
    magic, base = HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ValueError(f"{path} is not a write-ahead log")
    records = []
    offset = HEADER.size
    while offset + FRAME.size <= len(blob):
        length, crc = FRAME.unpack_from(blob, offset)
        start = offset + FRAME.size
        payload = blob[start:start + length]
        if length > MAX_LENGTH or len(payload) < length:
            break
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append({
            key: decode_array(value)
            if isinstance(value, dict) and value.get("__ndarray__")
            else value
            for key, value in record.items()
        })
        offset = start + length
    return base, records
