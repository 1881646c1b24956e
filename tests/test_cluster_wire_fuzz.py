"""Byte-level fuzzing of the :mod:`repro.cluster.wire` decoder.

A worker and the router read frames from a peer they do not control, so
the decoder's contract is narrow: a complete frame either decodes to a
message dict or raises :class:`ClusterError`; a stream that ends inside
a frame raises ``ConnectionError`` ("mid-frame", the peer died).  No
``KeyError``, ``IndexError``, ``binascii.Error``, ``UnicodeDecodeError``,
``RecursionError`` or ``MemoryError`` may escape — any of those would
kill a reader that only expects the two.  The inputs are arbitrary
bytes and valid score frames mutated at the byte, JSON and array level;
the round-trip properties pin the codec's float64-exact promise.
"""

import asyncio
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.cluster.wire import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    recv_frame,
)
from repro.errors import ClusterError
from repro.parallel.sharding import RANKED

from tests.test_cluster_plan_wire import ByteStream, over_the_wire

#: A valid score frame and a valid reply, both carrying arrays.
SCORE = {
    "op": "score",
    "queries": np.array([[0.5, -0.0, 5e-324], [1.0, -2.5, 3.0]]),
    "epoch": 0,
    "top": 2,
    "id": 4,
}
REPLY = {
    "shard": 0,
    "epoch": 0,
    "results": [
        np.array([(3, 0.75), (1, 0.25)], dtype=RANKED),
        np.array([], dtype=RANKED),
    ],
    "id": 4,
}
ARRAY_KEYS = ["__ndarray__", "dtype", "shape", "data"]


def _framed(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _decodes_or_refuses(payload: bytes) -> dict | None:
    """Decode one complete frame; ``None`` when the wire refused it."""
    try:
        message = recv_frame(ByteStream(_framed(payload)))
    except ClusterError:
        return None
    assert isinstance(message, dict)
    return message


def _outcome(read):
    """Run ``read`` until clean EOF: the messages, then how it stopped."""
    messages = []
    try:
        while (message := read()) is not None:
            assert isinstance(message, dict)
            messages.append(message)
    except ClusterError:
        return messages, "refused"
    except ConnectionError as exc:
        assert "mid-frame" in str(exc)
        return messages, "mid-frame"
    return messages, "eof"


def _read_stream(stream: bytes):
    sock = ByteStream(stream)
    return _outcome(lambda: recv_frame(sock))


def _plain(message: dict) -> dict:
    """The frame's JSON as plain objects: arrays are the codec's dicts."""
    return json.loads(encode_frame(message)[4:])


# --------------------------------------------------------------------- #
# arbitrary bytes
# --------------------------------------------------------------------- #
@given(st.binary(max_size=512))
@example(b"\x80" + b'{"id":1}')
@example(b'{"a":' + b"[" * 100_000)
@example(b'{"x":' + b"1" * 5000 + b"}")
@example(b"\xff\xfe{\x00}\x00")
def test_any_payload_decodes_or_raises_cluster_error(payload):
    _decodes_or_refuses(payload)


@given(st.binary(max_size=512))
@example(struct.pack("<I", MAX_FRAME_BYTES + 1))
@example(struct.pack("<I", 2**32 - 1) + b"{}")
@example(b"\x02\x00")
def test_any_stream_reads_to_eof_refusal_or_mid_frame(stream):
    _read_stream(stream)


@given(st.binary(max_size=256))
def test_both_readers_agree_on_any_stream(stream):
    async def read_async():
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        messages = []
        try:
            while (message := await read_frame(reader)) is not None:
                messages.append(message)
        except ClusterError:
            return messages, "refused"
        except ConnectionError:
            return messages, "mid-frame"
        return messages, "eof"

    assert asyncio.run(read_async()) == _read_stream(stream)


# --------------------------------------------------------------------- #
# mutated valid frames
# --------------------------------------------------------------------- #
@given(st.sampled_from([SCORE, REPLY]), st.data())
def test_truncated_frames_end_mid_frame(message, data):
    frame = encode_frame(message)
    cut = data.draw(st.integers(1, len(frame) - 1))
    assert _read_stream(frame[:cut]) == ([], "mid-frame")
    # The same bytes re-framed as complete: a truncated payload.
    assert _decodes_or_refuses(frame[4:cut]) is None


@given(st.sampled_from([SCORE, REPLY]), st.integers(1, 2**32 - 1))
def test_a_length_past_the_end_is_mid_frame_or_refused(message, extra):
    payload = encode_frame(message)[4:]
    length = min(len(payload) + extra, 2**32 - 1)
    _, how = _read_stream(struct.pack("<I", length) + payload)
    assert how == ("refused" if length > MAX_FRAME_BYTES else "mid-frame")


@given(st.sampled_from([SCORE, REPLY]), st.data())
def test_flipped_bytes_decode_or_raise_cluster_error(message, data):
    frame = bytearray(encode_frame(message))
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(frame) - 1))
        frame[at] = data.draw(st.integers(0, 255))
    _read_stream(bytes(frame))
    _decodes_or_refuses(bytes(frame[4:]))


_ARRAY_PATCHES = st.one_of(
    st.fixed_dictionaries({"dtype": st.one_of(
        st.sampled_from(["|V16", "<i8", ">f8", "<f4", "O", "float64", "V16"]),
        st.text(max_size=6),
        st.integers(),
        st.none(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    )}),
    st.fixed_dictionaries({"shape": st.one_of(
        st.lists(st.integers(-2, 2**70), max_size=4),
        st.lists(st.integers(0, 2), min_size=65, max_size=70),
        st.lists(st.one_of(st.booleans(), st.floats(), st.text(max_size=1)),
                 min_size=1, max_size=2),
        st.integers(),
        st.text(max_size=4),
        st.none(),
    )}),
    st.fixed_dictionaries({"data": st.one_of(
        st.text(max_size=24),
        st.sampled_from(["A", "AB=", "====", "!!!!", "AAAAAAAAAAA"]),
        st.integers(),
        st.none(),
        st.lists(st.integers(), max_size=2),
    )}),
    # The WAL's sparse form, which the wire does not accept.
    st.just({"indices": "AAAAAAAAAAA=", "values": "AAAAAAAAAAA="}),
    st.just({"__ndarray__": False}),
)


@given(
    target=st.sampled_from(["queries", "results"]),
    patch=_ARRAY_PATCHES,
    drop=st.lists(st.sampled_from(ARRAY_KEYS), max_size=2),
)
def test_mutated_arrays_decode_or_raise_cluster_error(target, patch, drop):
    frame = _plain(SCORE if target == "queries" else REPLY)
    array = frame["queries"] if target == "queries" else frame["results"][0]
    array.update(patch)
    for key in drop:
        array.pop(key, None)
    message = _decodes_or_refuses(json.dumps(frame).encode("utf-8"))
    if message is not None and "__ndarray__" not in drop:
        decoded = message[target]
        if target == "results":
            decoded = decoded[0]
        assert decoded.dtype in (np.dtype("<f8"), RANKED)


def test_refused_array_forms():
    for patch in (
        {"dtype": "|V16"},  # the record dtype's own name drops its fields
        {"dtype": "<i8"},
        {"indices": "AAAAAAAAAAA=", "values": "AAAAAAAAAAA="},
        {"shape": [-1]},
        {"shape": [3, 3]},
        {"shape": [True]},
        {"data": "!!!"},
    ):
        frame = _plain(SCORE)
        frame["queries"].update(patch)
        if "indices" in patch:
            del frame["queries"]["data"]
        assert _decodes_or_refuses(json.dumps(frame).encode()) is None, patch


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@given(_JSON_VALUES.filter(lambda value: not isinstance(value, dict)))
def test_a_header_that_is_not_an_object_is_refused(value):
    assert _decodes_or_refuses(json.dumps(value).encode("utf-8")) is None


def test_a_bare_array_is_not_a_frame():
    payload = json.dumps(_plain(SCORE)["queries"]).encode("utf-8")
    assert _decodes_or_refuses(payload) is None
    with pytest.raises(ClusterError):
        encode_frame(SCORE["queries"])


def test_only_the_two_wire_dtypes_encode():
    for array in (np.zeros(2, "<f4"), np.arange(3), np.zeros(1, ">f8")):
        with pytest.raises(ClusterError):
            encode_frame({"queries": array})


def test_control_frames_stay_plain_json():
    for message in ({"op": "ping", "id": 1}, {"op": "trace", "trace_id": "t"}):
        plain = json.dumps(message, separators=(",", ":")).encode()
        assert encode_frame(message)[4:] == plain


# --------------------------------------------------------------------- #
# round trip: raw IEEE bytes, bit for bit
# --------------------------------------------------------------------- #
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]


@given(
    arrays(
        np.float64,
        array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.floats() | st.sampled_from(_SPECIAL),
    ),
    arrays(RANKED, array_shapes(min_dims=1, max_dims=1, min_side=0)),
)
@example(
    np.array([_SPECIAL, _SPECIAL[::-1]]),
    np.array(
        [(0, -0.0), (2**63 - 1, 5e-324), (-1, -1.7976931348623157e308)],
        dtype=RANKED,
    ),
)
@example(np.zeros((0, 4)), np.zeros(0, dtype=RANKED))
def test_arrays_round_trip_bit_for_bit(queries, ranked):
    sent = [ranked, ranked[:0]]
    got = over_the_wire({"op": "score", "queries": queries, "results": sent})
    assert got["queries"].dtype == np.dtype("<f8")
    assert got["queries"].shape == queries.shape
    assert got["queries"].tobytes() == queries.tobytes()
    for array, back in zip(sent, got["results"]):
        assert back.dtype == RANKED
        assert back.shape == array.shape
        assert back.tobytes() == array.tobytes()
