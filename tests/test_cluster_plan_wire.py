"""Tests for the cluster's plan, wire framing, and shard-worker core.

Everything here is transport-light: plans and frames are exercised over
socketpairs and in-memory readers, and :class:`ShardWorker` is driven
through its :meth:`handle` dispatch directly — the multi-process paths
are covered by ``test_cluster_process.py`` and the CI smoke.
"""

import asyncio
import io
import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.cluster.plan import PLAN_FORMAT, ShardPlan
from repro.cluster.wire import (
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
)
from repro.cluster.worker import ShardWorker, serve_shard
from repro.core.build import fit_lsi
from repro.errors import ClusterError, ShapeError
from repro.core.query import batch_project_queries
from repro.parallel.sharding import RANKED, merge_topk, shard_bounds

from tests.test_serving_scan import whole_model_search


# --------------------------------------------------------------------- #
# plan
# --------------------------------------------------------------------- #
def test_plan_matches_canonical_partition():
    plan = ShardPlan.compute(1033, 7, epoch=3, checkpoint="ckpt-00000003")
    assert [(s.lo, s.hi) for s in plan.shards] == shard_bounds(1033, 7)
    assert plan.n_shards == 7
    assert [s.shard_id for s in plan.shards] == list(range(7))
    # Full, disjoint cover of the document rows, in order.
    assert plan.shards[0].lo == 0
    assert plan.shards[-1].hi == 1033
    for a, b in zip(plan.shards, plan.shards[1:]):
        assert a.hi == b.lo


def test_plan_json_round_trip_is_byte_stable():
    plan = ShardPlan.compute(57, 3, epoch=1, checkpoint="ckpt-00000001")
    text = plan.to_json()
    assert ShardPlan.from_json(text) == plan
    assert ShardPlan.from_json(text).to_json() == text
    # Canonical bytes: independently computed plans agree exactly.
    again = ShardPlan.compute(57, 3, epoch=1, checkpoint="ckpt-00000001")
    assert again.to_json() == text
    assert json.loads(text)["format"] == PLAN_FORMAT


def test_plan_from_json_rejects_tampered_ranges():
    plan = ShardPlan.compute(57, 3)
    data = json.loads(plan.to_json())
    data["shards"][1] = [20, 40]  # not the canonical partition
    with pytest.raises(ClusterError, match="partition"):
        ShardPlan.from_json(json.dumps(data))


def test_plan_from_json_rejects_garbage():
    with pytest.raises(ClusterError):
        ShardPlan.from_json("not json at all")
    with pytest.raises(ClusterError):
        ShardPlan.from_json(json.dumps({"format": "other/9"}))
    with pytest.raises(ClusterError):
        ShardPlan.from_json(json.dumps({"format": PLAN_FORMAT}))


def test_plan_shard_lookup_validates():
    plan = ShardPlan.compute(10, 2)
    assert plan.shard(1).as_pair() == [5, 10]
    with pytest.raises(ShapeError):
        plan.shard(2)


# --------------------------------------------------------------------- #
# wire framing
# --------------------------------------------------------------------- #
class ByteStream:
    """Bytes read the way :func:`recv_frame` reads a socket."""

    def __init__(self, data: bytes):
        self._data = io.BytesIO(data)

    def recv(self, n: int) -> bytes:
        return self._data.read(n)


def over_the_wire(message: dict) -> dict:
    """``message`` as its peer receives it: encoded, framed, decoded."""
    return recv_frame(ByteStream(encode_frame(message)))


def test_blocking_frame_round_trip():
    a, b = socket.socketpair()
    try:
        message = {"op": "score", "queries": [[0.5, -1.25e-17]], "id": 7}
        send_frame(a, message)
        send_frame(a, {"op": "ping"})
        assert recv_frame(b) == message
        assert recv_frame(b) == {"op": "ping"}
        a.close()
        assert recv_frame(b) is None  # clean EOF at a frame boundary
    finally:
        b.close()


def test_blocking_frame_mid_frame_eof_raises():
    a, b = socket.socketpair()
    try:
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[: len(frame) - 2])  # truncate inside the payload
        a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_frame(b)
    finally:
        b.close()


def test_frame_floats_round_trip_exactly():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(64) * 10.0 ** rng.integers(-12, 12, 64)
    a, b = socket.socketpair()
    try:
        send_frame(a, {"v": values.tolist()})
        got = np.asarray(recv_frame(b)["v"], dtype=np.float64)
        assert np.array_equal(got, values)
    finally:
        a.close()
        b.close()


def test_encode_frame_rejects_bad_messages():
    with pytest.raises(ClusterError):
        encode_frame(["not", "a", "dict"])


def test_oversize_announcement_rejected():
    a, b = socket.socketpair()
    try:
        import struct

        a.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ClusterError, match="desynchronized|cap"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_asyncio_frame_round_trip():
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(encode_frame({"op": "info", "id": 3}))
        reader.feed_eof()
        first = await read_frame(reader)
        second = await read_frame(reader)
        return first, second

    first, second = asyncio.run(main())
    assert first == {"op": "info", "id": 3}
    assert second is None


def test_asyncio_frame_mid_frame_eof_raises():
    async def main():
        reader = asyncio.StreamReader()
        frame = encode_frame({"op": "info"})
        reader.feed_data(frame[:-1])
        reader.feed_eof()
        with pytest.raises(ConnectionError, match="mid-frame"):
            await read_frame(reader)

    asyncio.run(main())


# --------------------------------------------------------------------- #
# shard worker core (no sockets)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def cluster_model():
    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(57)]
    return fit_lsi(texts, 12), texts


def test_shard_workers_reproduce_the_whole_model_search(cluster_model):
    model, texts = cluster_model
    queries = texts[:5]
    shards = 3
    top = 7
    flat = whole_model_search(
        model, batch_project_queries(model, queries), top
    )

    plan = ShardPlan.compute(model.n_documents, shards)
    workers = [ShardWorker(model, plan.shard(i)) for i in range(shards)]
    Qs = batch_project_queries(model, queries) * model.s
    # Queries and scores cross the real codec, both ways.
    frame = over_the_wire({"op": "score", "queries": Qs, "top": top})
    responses = [over_the_wire(w.handle(frame)) for w in workers]
    for sid, response in enumerate(responses):
        assert response["shard"] == sid
    merged = [
        merge_topk([r["results"][qi] for r in responses], top)
        for qi in range(len(queries))
    ]
    assert merged == flat  # indices, scores, and tie order


def test_shard_worker_indices_are_global(cluster_model):
    model, texts = cluster_model
    plan = ShardPlan.compute(model.n_documents, 3)
    worker = ShardWorker(model, plan.shard(2))
    Qs = (batch_project_queries(model, texts[:1]) * model.s).tolist()
    results = worker.handle({"op": "score", "queries": Qs, "top": 50})
    lo, hi = plan.shard(2).as_pair()
    indices = [i for i, _ in results["results"][0]]
    assert indices and all(lo <= i < hi for i in indices)


def test_shard_worker_ping_info_and_unknown_op(cluster_model):
    model, _ = cluster_model
    plan = ShardPlan.compute(model.n_documents, 2)
    worker = ShardWorker(model, plan.shard(0), epoch=4)
    assert worker.handle({"op": "ping"}) == {
        "ok": True, "shard": 0, "epoch": 4,
    }
    info = worker.handle({"op": "info"})
    assert info["lo"] == 0 and info["hi"] == plan.shard(0).hi
    assert info["n_documents"] == model.n_documents
    assert "error" in worker.handle({"op": "nonsense"})


def test_shard_worker_malformed_queries_answered_not_fatal(cluster_model):
    model, _ = cluster_model
    plan = ShardPlan.compute(model.n_documents, 2)
    worker = ShardWorker(model, plan.shard(0))
    assert "error" in worker.handle({"op": "score"})
    assert "error" in worker.handle({"op": "score", "queries": "nope"})
    wrong_k = [[0.0] * (model.k + 1)]
    assert "error" in worker.handle({"op": "score", "queries": wrong_k})


def test_shard_worker_empty_shard(cluster_model):
    model, _ = cluster_model
    # More shards than documents → some shards are empty.
    plan = ShardPlan.compute(3, 5)
    empty = next(s for s in plan.shards if s.hi == s.lo)
    worker = ShardWorker(model, empty)
    got, used_ann = worker.score(np.zeros((2, model.k)), 5, None)
    assert [r.tolist() for r in got] == [[], []] and used_ann is False
    assert all(r.dtype == RANKED for r in got)


def test_shard_worker_rejects_out_of_range_shard(cluster_model):
    model, _ = cluster_model
    from repro.cluster.plan import ShardRange

    with pytest.raises(ShapeError):
        ShardWorker(model, ShardRange(0, 0, model.n_documents + 1))


def test_worker_server_drops_a_garbage_frame_quietly(cluster_model, capsys):
    # A frame that does not decode desynchronizes its stream: the worker
    # closes that connection without a traceback and keeps serving.
    model, texts = cluster_model
    plan = ShardPlan.compute(model.n_documents, 2)
    worker = ShardWorker(model, plan.shard(1))
    server = serve_shard(worker)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(server.server_address) as bad:
            bad.settimeout(5.0)
            bad.sendall(struct.pack("<I", 3) + b"\x80ab")
            assert bad.recv(1) == b""  # the worker hung up on the stream
        Qs = batch_project_queries(model, texts[:3]) * model.s
        with socket.create_connection(server.server_address) as good:
            good.settimeout(5.0)
            send_frame(good, {"op": "score", "queries": Qs, "top": 5, "id": 1})
            reply = recv_frame(good)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    want, _ = worker.current.search(Qs, top=5)
    assert reply["id"] == 1
    assert [r.tolist() for r in reply["results"]] == want
    assert "Traceback" not in capsys.readouterr().err
