"""Tests for the store primitives: checkpoints and the write-ahead log."""

import json
import os

import numpy as np
import pytest

from repro.errors import StoreCorruptError, StoreError
from repro.store.checkpoint import (
    CHECKPOINT_FORMAT,
    MANIFEST_NAME,
    checkpoint_name,
    latest_valid_checkpoint,
    load_manifest,
    list_checkpoints,
    newest_checkpoint,
    read_arrays,
    verify_checkpoint,
    write_checkpoint,
)
from repro.store.wal import (
    WAL_MAGIC,
    WriteAheadLog,
    decode_array,
    encode_array,
    encode_array_auto,
    scan_wal,
    verify_wal,
)


def array_files(info):
    """The ``.npy`` files of one checkpoint, in manifest order."""
    return [info.path / entry["file"] for entry in info.manifest["arrays"].values()]


@pytest.fixture
def arrays(rng):
    return {
        "U": rng.standard_normal((7, 3)),
        "s": np.array([3.0, 2.0, 1.0]),
        "ids": np.arange(5, dtype=np.int64),
    }


# --------------------------------------------------------------------- #
# checkpoints
# --------------------------------------------------------------------- #
def test_checkpoint_round_trip_bit_exact(tmp_path, arrays):
    info = write_checkpoint(tmp_path, arrays, {"n_documents": 5})
    assert info.checkpoint_id == 1
    assert info.path.name == checkpoint_name(1)
    assert info.manifest["format"] == CHECKPOINT_FORMAT
    assert info.meta == {"n_documents": 5}
    loaded = read_arrays(info)
    for name, array in arrays.items():
        assert np.array_equal(loaded[name], array)
        assert loaded[name].dtype == array.dtype


def test_checkpoint_ids_increment_and_sort(tmp_path, arrays):
    for _ in range(3):
        write_checkpoint(tmp_path, arrays, {})
    infos = list_checkpoints(tmp_path)
    assert [i.checkpoint_id for i in infos] == [1, 2, 3]


def test_verify_detects_single_flipped_byte(tmp_path, arrays):
    info = write_checkpoint(tmp_path, arrays, {})
    assert verify_checkpoint(info) == []
    victim = array_files(info)[0]
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x01  # one flipped bit, size unchanged
    victim.write_bytes(bytes(blob))
    problems = verify_checkpoint(info)
    assert len(problems) == 1
    assert "crc32" in problems[0]
    # ... so the locate step never hands it to a reader.
    assert latest_valid_checkpoint(tmp_path) == (None, problems)


def test_verify_detects_truncation_and_missing_file(tmp_path, arrays):
    info = write_checkpoint(tmp_path, arrays, {})
    files = array_files(info)
    files[0].write_bytes(files[0].read_bytes()[:-1])
    files[1].unlink()
    problems = verify_checkpoint(info)
    assert any("size" in p for p in problems)
    assert any("missing" in p for p in problems)


def test_tmp_debris_is_reaped_and_invisible(tmp_path, arrays):
    write_checkpoint(tmp_path, arrays, {})
    debris = tmp_path / (checkpoint_name(2) + ".tmp")
    debris.mkdir()
    (debris / "half.npy").write_bytes(b"partial")
    infos = list_checkpoints(tmp_path)
    assert [i.checkpoint_id for i in infos] == [1]
    # A listing deletes nothing: the ``.tmp`` may be another process's
    # write in flight (a standby polls while the primary seals).
    assert (debris / "half.npy").exists()
    assert newest_checkpoint(tmp_path).checkpoint_id == 1
    assert latest_valid_checkpoint(tmp_path)[0].checkpoint_id == 1
    assert (debris / "half.npy").exists()
    # The next checkpoint takes id 2 — debris never claimed it — and its
    # writer reaps the debris before it writes.
    assert write_checkpoint(tmp_path, arrays, {}).checkpoint_id == 2
    assert not debris.exists()


def test_latest_valid_falls_back_past_corruption(tmp_path, arrays):
    write_checkpoint(tmp_path, arrays, {"gen": 1})
    newest = write_checkpoint(tmp_path, arrays, {"gen": 2})
    victim = array_files(newest)[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))
    info, problems = latest_valid_checkpoint(tmp_path)
    assert info is not None and info.meta["gen"] == 1
    assert problems  # the skipped newest is reported


def test_duplicate_id_and_bad_manifest_rejected(tmp_path, arrays):
    info = write_checkpoint(tmp_path, arrays, {})
    with pytest.raises(StoreError):
        write_checkpoint(tmp_path, arrays, {}, checkpoint_id=1)
    (info.path / MANIFEST_NAME).write_text("{not json")
    assert list_checkpoints(tmp_path) == []
    with pytest.raises(StoreCorruptError):
        load_manifest(info.path)


def test_mmap_read_is_lazy_and_equal(tmp_path, arrays):
    info = write_checkpoint(tmp_path, arrays, {})
    mapped = read_arrays(info, mmap=True)
    assert isinstance(mapped["U"], np.memmap)
    for name, array in arrays.items():
        assert np.array_equal(np.asarray(mapped[name]), array)


# --------------------------------------------------------------------- #
# write-ahead log
# --------------------------------------------------------------------- #
def test_wal_append_scan_round_trip(tmp_path, rng):
    path = tmp_path / "wal.log"
    block = rng.standard_normal((4, 2))
    with WriteAheadLog(path) as wal:
        assert wal.append("add_counts", {"counts": block, "doc_ids": ["a"]}) == 1
        assert wal.append("consolidate", {}) == 2
        assert wal.n_records == 2 and wal.last_lsn == 2
    scan = scan_wal(path)
    assert not scan.torn_tail and scan.problems == []
    assert [(r.lsn, r.op) for r in scan.records] == [
        (1, "add_counts"), (2, "consolidate"),
    ]
    assert np.array_equal(scan.records[0].payload["counts"], block)
    assert scan.records[0].payload["doc_ids"] == ["a"]


def test_wal_torn_tail_truncated_on_reopen(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append("add_counts", {"n": 1})
        wal.append("add_counts", {"n": 2})
        clean_size = wal.size_bytes
    # Simulate a crash mid-append: garbage frame bytes at the tail.
    with open(path, "ab") as fh:
        fh.write(b"\x99" * 11)
    scan = scan_wal(path)
    assert scan.torn_tail and len(scan.records) == 2
    wal = WriteAheadLog(path)
    assert wal.recovered_drop == 11
    assert path.stat().st_size == clean_size
    # LSNs continue after the torn record, no gap and no reuse.
    assert wal.append("add_counts", {"n": 3}) == 3
    wal.close()
    assert verify_wal(path) == []


def test_wal_mid_file_corruption_reported(tmp_path):
    path = tmp_path / "wal.log"
    with WriteAheadLog(path) as wal:
        wal.append("add_counts", {"n": 1})
        first_end = wal.size_bytes
        wal.append("add_counts", {"n": 2})
    blob = bytearray(path.read_bytes())
    blob[first_end + 12] ^= 0x01  # flip one bit inside record 2's payload
    path.write_bytes(bytes(blob))
    problems = verify_wal(path)
    assert len(problems) == 1 and "checksum" in problems[0]
    scan = scan_wal(path)
    assert [r.lsn for r in scan.records] == [1]


def test_wal_truncate_preserves_lsn_numbering(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    for i in range(3):
        wal.append("add_counts", {"n": i})
    wal.truncate()
    assert wal.n_records == 0 and wal.last_lsn == 3
    assert wal.append("add_counts", {"n": 99}) == 4
    wal.close()
    # Survives reopen: the base LSN lives in the header.
    reopened = WriteAheadLog(path)
    assert reopened.last_lsn == 4
    assert [r.lsn for r in scan_wal(path).records] == [4]
    reopened.close()


def test_wal_rejects_foreign_file(tmp_path):
    path = tmp_path / "wal.log"
    path.write_bytes(b"definitely not " + WAL_MAGIC)
    with pytest.raises(StoreCorruptError):
        WriteAheadLog(path)


def test_wal_closed_append_raises(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log")
    wal.close()
    with pytest.raises(StoreError):
        wal.append("add_counts", {})


def test_ndarray_codec_bit_exact(rng):
    for array in (
        rng.standard_normal((3, 4)),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array([], dtype=np.float64),
        np.array(3.5),
    ):
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == array.dtype
        assert decoded.shape == array.shape
        assert np.array_equal(decoded, array)


def test_wal_append_failure_leaves_clean_boundary(tmp_path):
    class FlakyFile:
        """Writes half the frame, then fails — a mid-append ENOSPC."""

        def __init__(self, fh):
            self._fh = fh
            self.fail = False

        def write(self, data):
            if self.fail:
                self._fh.write(data[: len(data) // 2])
                raise OSError("disk glitch mid-write")
            return self._fh.write(data)

        def __getattr__(self, name):
            return getattr(self._fh, name)

    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append("add_counts", {"n": 1})
    clean_size = wal.size_bytes
    flaky = FlakyFile(wal._fh)
    flaky.fail = True
    wal._fh = flaky
    with pytest.raises(OSError, match="disk glitch"):
        wal.append("add_counts", {"n": 2})
    # The torn frame was truncated away: the file is back on the
    # last-good record boundary, not hiding a bad frame mid-file.
    assert path.stat().st_size == clean_size
    assert verify_wal(path) == []
    # The next append (on the handle the repair reopened) lands cleanly
    # and reuses the never-acknowledged LSN.
    assert wal.append("add_counts", {"n": 3}) == 2
    wal.close()
    scan = scan_wal(path)
    assert not scan.torn_tail and scan.problems == []
    assert [(r.lsn, r.payload["n"]) for r in scan.records] == [(1, 1), (2, 3)]


def test_wal_rollback_unappends_record(tmp_path):
    path = tmp_path / "wal.log"
    wal = WriteAheadLog(path)
    wal.append("add_counts", {"n": 1})
    mark = wal.mark()
    wal.append("add_counts", {"n": 2})
    wal.rollback(mark)
    assert wal.n_records == 1 and wal.last_lsn == 1
    assert path.stat().st_size == wal.size_bytes
    # the rolled-back LSN was never acknowledged, so it is reassigned
    assert wal.append("add_counts", {"n": 3}) == 2
    with pytest.raises(StoreError, match="forward"):
        wal.rollback((wal.size_bytes + 10, 99, 99))
    wal.close()
    assert [(r.lsn, r.payload["n"]) for r in scan_wal(path).records] == [
        (1, 1), (2, 3),
    ]


def test_sparse_codec_bit_exact_and_smaller(rng):
    dense = rng.standard_normal((8, 4))
    assert "data" in encode_array_auto(dense)  # dense stays dense

    sparse = np.zeros((300, 5))
    sparse[rng.integers(0, 300, size=12), rng.integers(0, 5, size=12)] = 3.0
    sparse[7, 0] = -0.0  # must survive bitwise, not collapse to +0.0
    encoded = encode_array_auto(sparse)
    assert "indices" in encoded and "data" not in encoded
    decoded = decode_array(encoded)
    assert decoded.dtype == sparse.dtype and decoded.shape == sparse.shape
    assert np.array_equal(decoded, sparse)
    assert np.array_equal(np.signbit(decoded), np.signbit(sparse))
    # The point: the record is a fraction of the dense base64 encoding.
    assert len(json.dumps(encoded)) < len(json.dumps(encode_array(sparse))) / 5


def test_wal_append_uses_sparse_encoding_for_count_blocks(tmp_path, rng):
    path = tmp_path / "wal.log"
    block = np.zeros((500, 2))
    block[rng.integers(0, 500, size=10), rng.integers(0, 2, size=10)] = 1.0
    with WriteAheadLog(path) as wal:
        wal.append("add_counts", {"counts": block, "doc_ids": ["a", "b"]})
        sparse_size = wal.size_bytes
    dense_size = len(json.dumps({"counts": encode_array(block)}))
    assert sparse_size < dense_size / 5
    scan = scan_wal(path)
    assert np.array_equal(scan.records[0].payload["counts"], block)


def test_fsync_called_per_append(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
    wal = WriteAheadLog(tmp_path / "wal.log")
    header_syncs = len(calls)
    wal.append("add_counts", {"n": 1})
    wal.append("add_counts", {"n": 2})
    wal.close()
    assert len(calls) == header_syncs + 2
