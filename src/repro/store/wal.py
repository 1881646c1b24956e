"""Append-only write-ahead log for index mutations.

Every document batch the index manager applies between checkpoints —
an ``add_counts`` record, which ``add_texts`` normalizes into; the
consolidations it triggers are replayed, not logged — is appended here
and fsynced *before* it is applied, so an acknowledged fold-in is never
lost: after a crash, recovery replays the log suffix on top of the
newest checkpoint.

File layout::

    [8B magic "RPWAL001"][8B little-endian base LSN]        header
    [4B payload length][4B CRC32(payload)][payload] ...     records

Payloads are UTF-8 JSON with NumPy arrays encoded losslessly: dense
(dtype + shape + base64 of the raw little-endian bytes) or, when the
array is mostly zeros — the shape of every fold-in count block — sparse
(flat indices + values), chosen per array by :func:`encode_array_auto`.
Both decode bit-identically, so a replayed ``add_counts`` block is
exactly the one the crashed process applied, and the log grows with the
*sparse* size of the data it records.  Each record carries its log
sequence number (LSN); the header stores the base LSN so truncation
(``repro store compact``) preserves the global numbering checkpoint
manifests refer to.

Torn tails are expected, not fatal: a crash mid-append leaves a final
record with too few bytes or a failing checksum.  :func:`scan_wal`
stops at the first invalid record and reports it; opening the log for
appending truncates the torn suffix so new records never land after
garbage.  A checksum failure *before* the end of file means real data
corruption — ``repro store verify`` reports every such record.
"""

from __future__ import annotations

import base64
import json
import os
import pathlib
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import StoreCorruptError, StoreError

__all__ = [
    "WAL_MAGIC",
    "WalRecord",
    "WalScan",
    "WriteAheadLog",
    "scan_wal",
    "verify_wal",
    "encode_array",
    "encode_array_auto",
    "decode_array",
]

WAL_MAGIC = b"RPWAL001"
_HEADER = struct.Struct("<8sQ")  # magic, base LSN
_FRAME = struct.Struct("<II")  # payload length, CRC32(payload)

#: Upper bound on one record's payload; anything larger is corruption.
MAX_RECORD_BYTES = 1 << 31


def encode_array(array: np.ndarray) -> dict:
    """Lossless JSON encoding of an ndarray (dtype + shape + base64)."""
    shape = list(array.shape)  # ascontiguousarray promotes 0-d to (1,)
    array = np.ascontiguousarray(array)
    return {
        "__ndarray__": True,
        "dtype": array.dtype.str,
        "shape": shape,
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


#: Flat-index dtype of the sparse encoding (fixed for cross-platform logs).
_INDEX_DTYPE = np.dtype("<i8")

#: dtype kinds eligible for sparse encoding (float / signed / unsigned int).
_SPARSE_KINDS = "fiu"


def encode_array_auto(array: np.ndarray) -> dict:
    """Pick the smaller lossless encoding: sparse when mostly zeros.

    Fold-in count blocks are overwhelmingly zero, so storing (flat
    index, value) pairs shrinks the log by orders of magnitude; dense
    arrays fall back to :func:`encode_array`.  Sparse is only used when
    it at least halves the raw byte count, and every dropped entry is
    bitwise ``+0.0`` (negative zeros are kept), so decoding is
    bit-identical either way.
    """
    if array.ndim == 0 or array.size == 0 or array.dtype.kind not in _SPARSE_KINDS:
        return encode_array(array)
    shape = list(array.shape)
    flat = np.ascontiguousarray(array).ravel()
    nonzero = flat != 0
    if flat.dtype.kind == "f":
        nonzero |= np.signbit(flat) & (flat == 0)
    indices = np.flatnonzero(nonzero)
    sparse_bytes = indices.size * (_INDEX_DTYPE.itemsize + flat.itemsize)
    if sparse_bytes * 2 >= flat.size * flat.itemsize:
        return encode_array(array)
    return {
        "__ndarray__": True,
        "dtype": array.dtype.str,
        "shape": shape,
        "indices": base64.b64encode(
            indices.astype(_INDEX_DTYPE, copy=False).tobytes()
        ).decode("ascii"),
        "values": base64.b64encode(
            np.ascontiguousarray(flat[indices]).tobytes()
        ).decode("ascii"),
    }


def decode_array(obj: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` / :func:`encode_array_auto`
    (bit-exact round trip for both encodings)."""
    dtype = np.dtype(obj["dtype"])
    if "indices" in obj:
        indices = np.frombuffer(
            base64.b64decode(obj["indices"]), dtype=_INDEX_DTYPE
        )
        values = np.frombuffer(base64.b64decode(obj["values"]), dtype=dtype)
        size = 1
        for dim in obj["shape"]:
            size *= int(dim)
        flat = np.zeros(size, dtype=dtype)
        flat[indices] = values
        return flat.reshape(obj["shape"])
    raw = base64.b64decode(obj["data"])
    array = np.frombuffer(raw, dtype=dtype)
    return array.reshape(obj["shape"]).copy()


def _decode_payload(payload: dict) -> dict:
    return {
        key: decode_array(value)
        if isinstance(value, dict) and value.get("__ndarray__")
        else value
        for key, value in payload.items()
    }


@dataclass(frozen=True)
class WalRecord:
    """One decoded log record: its LSN, operation, and payload."""

    lsn: int
    op: str
    payload: dict


@dataclass
class WalScan:
    """Result of walking a log file front to back."""

    records: list[WalRecord] = field(default_factory=list)
    valid_end: int = _HEADER.size
    base_lsn: int = 0
    problems: list[str] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def last_lsn(self) -> int:
        """LSN of the final valid record (base LSN when empty)."""
        return self.records[-1].lsn if self.records else self.base_lsn


def scan_wal(path: pathlib.Path) -> WalScan:
    """Walk the log, collecting valid records and tail diagnostics.

    Never raises on content: a missing file yields an empty scan, and
    any invalid byte sequence ends the walk with ``torn_tail=True`` and
    a problem string saying what was wrong at which offset.  (After the
    first bad frame the record boundaries are unknowable, so whether
    the cause was a crash or corruption, everything beyond it is
    unrecoverable — callers decide how loud to be.)
    """
    path = pathlib.Path(path)
    scan = WalScan()
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return scan
    # Buffered, frame-at-a-time reads: the log is never slurped whole,
    # so scanning a long-lived WAL costs O(largest record) memory for
    # the I/O (the decoded records the caller asked for still accrue).
    with fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            scan.problems.append(
                f"{path.name}: short header ({len(header)} bytes)"
            )
            scan.torn_tail = True
            scan.valid_end = 0
            return scan
        magic, base_lsn = _HEADER.unpack(header)
        if magic != WAL_MAGIC:
            scan.problems.append(f"{path.name}: bad magic {magic!r}")
            scan.torn_tail = True
            scan.valid_end = 0
            return scan
        scan.base_lsn = base_lsn
        offset = _HEADER.size
        while True:
            frame = fh.read(_FRAME.size)
            if not frame:
                break
            if len(frame) < _FRAME.size:
                scan.problems.append(
                    f"{path.name}: torn frame header at offset {offset}"
                )
                scan.torn_tail = True
                break
            length, crc = _FRAME.unpack(frame)
            start = offset + _FRAME.size
            if length > MAX_RECORD_BYTES:
                remain = max(0, os.fstat(fh.fileno()).st_size - start)
                scan.problems.append(
                    f"{path.name}: torn record at offset {offset} "
                    f"(length {length}, {remain} bytes remain)"
                )
                scan.torn_tail = True
                break
            payload = fh.read(length)
            if len(payload) < length:
                scan.problems.append(
                    f"{path.name}: torn record at offset {offset} "
                    f"(length {length}, {len(payload)} bytes remain)"
                )
                scan.torn_tail = True
                break
            if zlib.crc32(payload) != crc:
                scan.problems.append(
                    f"{path.name}: checksum mismatch at offset {offset}"
                )
                scan.torn_tail = True
                break
            try:
                decoded = json.loads(payload.decode("utf-8"))
                record = WalRecord(
                    int(decoded.pop("lsn")),
                    str(decoded.pop("op")),
                    _decode_payload(decoded),
                )
            except Exception as exc:
                scan.problems.append(
                    f"{path.name}: undecodable record at offset {offset}: "
                    f"{exc}"
                )
                scan.torn_tail = True
                break
            scan.records.append(record)
            offset = start + length
            scan.valid_end = offset
    return scan


def verify_wal(path: pathlib.Path) -> list[str]:
    """Problem strings for a log file (empty = fully valid)."""
    return scan_wal(path).problems


class WriteAheadLog:
    """The append handle a live store writes through.

    Opening an existing log scans it once: torn tails from a crash are
    truncated away (the dropped byte count is reported via
    :attr:`recovered_drop`), the LSN counter resumes from the last valid
    record, and the file handle stays open for the store's lifetime so
    an append is one write + flush + fsync.
    """

    def __init__(self, path: pathlib.Path, *, base_lsn: int = 0):
        self.path = pathlib.Path(path)
        self.recovered_drop = 0
        self._halted = False
        if self.path.exists():
            scan = scan_wal(self.path)
            if scan.valid_end == 0:
                raise StoreCorruptError(
                    f"{self.path} is not a write-ahead log: "
                    + "; ".join(scan.problems)
                )
            size = self.path.stat().st_size
            if size > scan.valid_end:
                self.recovered_drop = size - scan.valid_end
                with open(self.path, "r+b") as fh:
                    fh.truncate(scan.valid_end)
                    fh.flush()
                    os.fsync(fh.fileno())
            self._base_lsn = scan.base_lsn
            self._next_lsn = scan.last_lsn + 1
            self._n_records = len(scan.records)
            self._bytes = scan.valid_end
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "wb") as fh:
                fh.write(_HEADER.pack(WAL_MAGIC, base_lsn))
                fh.flush()
                os.fsync(fh.fileno())
            self._base_lsn = base_lsn
            self._next_lsn = base_lsn + 1
            self._n_records = 0
            self._bytes = _HEADER.size
        self._fh = open(self.path, "ab")

    # ------------------------------------------------------------------ #
    @property
    def n_records(self) -> int:
        """Valid records currently in the file."""
        return self._n_records

    @property
    def last_lsn(self) -> int:
        """LSN of the most recent record (base LSN when empty)."""
        return self._next_lsn - 1

    @property
    def size_bytes(self) -> int:
        """Current file size in bytes (header + records)."""
        return self._bytes

    # ------------------------------------------------------------------ #
    def append(self, op: str, payload: dict | None = None) -> int:
        """Durably append one record; returns its LSN.

        NumPy arrays in ``payload`` are encoded losslessly.  The record
        is fsynced before this returns — an LSN handed back is the
        acknowledgment contract recovery honors.
        """
        if self._halted:
            raise StoreError(
                f"write-ahead log {self.path} halted after an unrepairable "
                "write failure; reopen the store to recover"
            )
        if self._fh.closed:
            raise StoreError(f"write-ahead log {self.path} is closed")
        record = {"lsn": self._next_lsn, "op": op}
        for key, value in (payload or {}).items():
            record[key] = (
                encode_array_auto(value)
                if isinstance(value, np.ndarray)
                else value
            )
        blob = json.dumps(record).encode("utf-8")
        try:
            self._fh.write(_FRAME.pack(len(blob), zlib.crc32(blob)) + blob)
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except BaseException:
            # A failed or partial write leaves a torn frame mid-file; if
            # later appends landed after it they would be unreachable
            # (scan stops at the first bad frame) and silently dropped
            # at the next open.  Restore the last-good boundary first.
            self._repair_tail()
            raise
        lsn = self._next_lsn
        self._next_lsn += 1
        self._n_records += 1
        self._bytes += _FRAME.size + len(blob)
        return lsn

    def _repair_tail(self) -> None:
        """Truncate back to the last-good record boundary after a failed
        append; on failure, halt the log so nothing writes after a torn
        frame."""
        try:
            try:
                # Close (not flush) the buffered handle: a partial frame
                # may still sit in its userspace buffer, and it must not
                # leak onto disk ahead of a future record.
                self._fh.close()
            except OSError:
                pass
            with open(self.path, "r+b") as fh:
                fh.truncate(self._bytes)
                fh.flush()
                os.fsync(fh.fileno())
            self._fh = open(self.path, "ab")
        except OSError:
            self._halted = True

    def mark(self) -> tuple[int, int, int]:
        """Opaque log position (for :meth:`rollback`) before an append."""
        return (self._bytes, self._next_lsn, self._n_records)

    def rollback(self, mark: tuple[int, int, int]) -> None:
        """Physically truncate the log back to ``mark``.

        Used by the store when the in-memory apply of a just-appended
        record fails: the record's LSN was never acknowledged to any
        caller, and leaving it in the log would make recovery replay a
        mutation the live index never absorbed.  Failure to truncate
        halts the log (appends refuse) rather than leave the orphan.
        """
        bytes_, next_lsn, n_records = mark
        if bytes_ > self._bytes:
            raise StoreError("cannot roll a write-ahead log forward")
        if self._fh.closed:
            raise StoreError(f"write-ahead log {self.path} is closed")
        try:
            self._fh.flush()
            os.ftruncate(self._fh.fileno(), bytes_)
            os.fsync(self._fh.fileno())
        except OSError as exc:
            self._halted = True
            raise StoreError(
                f"write-ahead log {self.path} rollback failed ({exc}); "
                "log halted"
            ) from exc
        self._bytes = bytes_
        self._next_lsn = next_lsn
        self._n_records = n_records

    def truncate(self) -> None:
        """Drop every record; the LSN counter continues where it was.

        Used by ``repro store compact`` after the log's contents have
        been folded into a fresh checkpoint: the file is rewritten as
        header-only with the base LSN advanced to the last assigned LSN,
        so record numbering stays globally monotonic.
        """
        if self._fh.closed:
            raise StoreError(f"write-ahead log {self.path} is closed")
        self._fh.close()
        self._base_lsn = self._next_lsn - 1
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(WAL_MAGIC, self._base_lsn))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._n_records = 0
        self._bytes = _HEADER.size
        self._fh = open(self.path, "ab")

    def close(self) -> None:
        """Release the file handle (idempotent)."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.path}, records={self._n_records}, "
            f"last_lsn={self.last_lsn})"
        )
