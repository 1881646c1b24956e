"""Byte-level fuzzing of the write-ahead log decoder and of recovery.

A store reads its log back after a crash, from a disk it does not fully
control, so the contract is narrow: :func:`scan_wal` never raises — a
byte sequence it cannot read ends the walk as a torn tail with a
problem string — and :meth:`DurableIndexStore.open` fails, if it fails,
only with a :class:`ReproError` subclass (what ``repro serve
--data-dir`` reports as a store error, not a traceback).  The inputs are
truncations and flipped bytes of a valid log, arbitrary bytes after a
valid header, and CRC-valid frames whose JSON is hostile: missing keys,
bad dtype strings, out-of-range sparse indices, shape/size mismatches
and payload values of the wrong type.
"""

import base64
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.server.state import manager_from_texts
from repro.store.durable import DurableIndexStore
from repro.store.wal import WAL_MAGIC, encode_array, scan_wal

_HEADER = struct.Struct("<8sQ")
_FRAME = struct.Struct("<II")

#: Opening the store replays the log: keep the example count modest.
OPENS = settings(max_examples=40, deadline=None)


def _frame(payload: bytes) -> bytes:
    """One record frame whose CRC matches ``payload``."""
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _payloads(log: bytes) -> list[bytes]:
    """The record payloads of a well-formed log."""
    out, at = [], _HEADER.size
    while at < len(log):
        length, _ = _FRAME.unpack_from(log, at)
        out.append(log[at + _FRAME.size:at + _FRAME.size + length])
        at += _FRAME.size + length
    return out


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A closed store whose log holds two ``add_counts`` records, its
    log's bytes, and the first record's JSON."""
    rng = np.random.default_rng(8)
    vocab = [f"w{i}" for i in range(120)]
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(44)]
    data_dir = tmp_path_factory.mktemp("wal_fuzz") / "store"
    live = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts[:40], [f"D{i}" for i in range(40)], k=6)
    )
    live.add_texts(texts[40:42], ["N0", "N1"])
    live.add_texts(texts[42:44], ["N2", "N3"])
    live.close(flush=False)
    wal_path = DurableIndexStore.paths(data_dir)[1]
    log = wal_path.read_bytes()
    record = json.loads(_payloads(log)[0])
    assert record["op"] == "add_counts" and "indices" in record["counts"]
    return data_dir, wal_path, log, record


def _outcome(data_dir, wal_path, log: bytes) -> str:
    """Write ``log``, scan it, open the store; how the open ended."""
    wal_path.write_bytes(log)
    scan = scan_wal(wal_path)
    assert isinstance(scan.records, list)
    try:
        opened = DurableIndexStore.open(data_dir)
    except ReproError:
        return "refused"
    opened.close(flush=False)
    return "opened"


def _record_log(record) -> bytes:
    """A log holding ``record`` (any JSON value) as its one record."""
    blob = json.dumps(record).encode("utf-8")
    return _HEADER.pack(WAL_MAGIC, 0) + _frame(blob)


def test_the_valid_log_replays(store):
    data_dir, wal_path, log, _ = store
    assert len(scan_wal(wal_path).records) == 2
    assert _outcome(data_dir, wal_path, log) == "opened"


# --------------------------------------------------------------------- #
# bytes
# --------------------------------------------------------------------- #
@OPENS
@given(st.binary(max_size=256))
@example(b"")
@example(_FRAME.pack(2**32 - 1, 0))
@example(_frame(b"\xff\xfe"))
@example(_frame(b"[1, 2]"))
@example(_frame(b'{"lsn": 1}'))
@example(_frame(b'{"lsn": Infinity, "op": "add_counts"}'))
def test_any_bytes_after_the_header(store, tail):
    data_dir, wal_path, _, _ = store
    _outcome(data_dir, wal_path, _HEADER.pack(WAL_MAGIC, 0) + tail)


@OPENS
@given(st.data())
def test_truncated_logs(store, data):
    data_dir, wal_path, log, _ = store
    cut = data.draw(st.integers(0, len(log) - 1))
    _outcome(data_dir, wal_path, log[:cut])


@OPENS
@given(st.data())
def test_flipped_bytes(store, data):
    data_dir, wal_path, log, _ = store
    blob = bytearray(log)
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(
            st.integers(0, 255)
        )
    _outcome(data_dir, wal_path, bytes(blob))


# --------------------------------------------------------------------- #
# CRC-valid frames, hostile JSON
# --------------------------------------------------------------------- #
def _b64(values, dtype) -> str:
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# Dimensions stay small or overflow outright: a hostile shape must never
# make the decoder allocate for real.
_DIMS = st.one_of(st.integers(-2, 40), st.just(2**70))

_COUNTS_PATCHES = st.one_of(
    st.fixed_dictionaries({"dtype": st.one_of(
        st.sampled_from(
            ["<f8", ">f8", "<f4", "<i8", "|b1", "<c16", "<U2", "|S3",
             "<M8[s]", "|V8", "O", "float64", "bogus", ""]
        ),
        _JSON,
    )}),
    st.fixed_dictionaries({"shape": st.one_of(
        st.lists(_DIMS, max_size=3), _JSON,
    )}),
    # Sparse form: indices in and out of range, values of either size.
    st.fixed_dictionaries({
        "indices": st.lists(st.integers(-200, 200), max_size=4).map(
            lambda ix: _b64(ix, "<i8")
        ),
        "values": st.lists(st.floats(), max_size=4).map(
            lambda vs: _b64(vs, "<f8")
        ),
    }),
    st.fixed_dictionaries({"indices": _JSON}),
    st.fixed_dictionaries({"values": _JSON}),
    st.just({"__ndarray__": False}),
)


@OPENS
@given(
    patch=_COUNTS_PATCHES,
    drop=st.lists(
        st.sampled_from(["dtype", "shape", "indices", "values"]), max_size=2
    ),
    dense=st.booleans(),
)
def test_hostile_count_arrays(store, patch, drop, dense):
    data_dir, wal_path, _, record = store
    record = dict(record)
    counts = dict(record["counts"])
    if dense:
        # The dense form of the same block, then patched.
        flat = np.zeros(int(np.prod(counts["shape"])))
        flat[np.frombuffer(base64.b64decode(counts["indices"]), "<i8")] = (
            np.frombuffer(base64.b64decode(counts["values"]), "<f8")
        )
        counts = encode_array(flat.reshape(counts["shape"]))
    counts.update(patch)
    for key in drop:
        counts.pop(key, None)
    record["counts"] = counts
    _outcome(data_dir, wal_path, _record_log(record))


@OPENS
@given(
    drop=st.lists(st.sampled_from(["lsn", "op", "counts", "doc_ids"]), max_size=2),
    replace=st.dictionaries(
        st.sampled_from(["lsn", "op", "counts", "doc_ids"]), _JSON, max_size=2
    ),
)
@example(drop=["counts"], replace={})
@example(drop=["doc_ids"], replace={})
@example(drop=[], replace={"doc_ids": ["N0"]})
@example(drop=[], replace={"doc_ids": [1, 2]})
@example(drop=[], replace={"doc_ids": "N0N1"})
@example(drop=[], replace={"lsn": 7})
@example(drop=[], replace={"op": "consolidate"})
def test_hostile_records(store, drop, replace):
    data_dir, wal_path, _, record = store
    record = dict(record)
    for key in drop:
        record.pop(key, None)
    record.update(replace)
    _outcome(data_dir, wal_path, _record_log(record))


def test_a_count_block_of_the_wrong_height_is_refused(store):
    data_dir, wal_path, _, record = store
    counts = np.ones((3, 2))
    record = dict(record, counts=encode_array(counts))
    assert _outcome(data_dir, wal_path, _record_log(record)) == "refused"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN through fold-in
@pytest.mark.parametrize("value", [np.nan, np.inf, -1e308])
def test_non_finite_or_huge_counts_open_or_refuse(store, value):
    data_dir, wal_path, _, record = store
    shape = record["counts"]["shape"]
    counts = np.zeros(shape)
    counts[0, :] = value
    record = dict(record, counts=encode_array(counts))
    _outcome(data_dir, wal_path, _record_log(record))
