"""Tests for the scatter-gather router against in-process fake workers.

Each "worker" here is an asyncio server wrapping a real
:class:`ShardWorker`'s :meth:`handle` dispatch — the genuine scoring
core over the genuine wire framing, minus the subprocess machinery, so
these tests cover parity, degradation, deadlines, and hedging without
process-spawn latency.
"""

import asyncio
import struct
import time

import numpy as np
import pytest

from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter, WorkerChannel
from repro.cluster.wire import read_frame, write_frame
from repro.cluster.worker import ShardWorker
from repro.core.build import fit_lsi
from repro.errors import ClusterError
from repro.obs.metrics import registry
from repro.core.query import batch_project_queries

from tests.test_serving_scan import whole_model_search

SHARDS = 3
TOP = 7


@pytest.fixture(scope="module")
def router_model():
    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(57)]
    return fit_lsi(texts, 12), texts


class _FakeWorker:
    """One in-loop asyncio frame server around a real ShardWorker."""

    def __init__(self, worker: ShardWorker, *, delay: float = 0.0):
        self.worker = worker
        self.delay = delay
        self.server: asyncio.AbstractServer | None = None
        self.port = 0
        self.calls = 0
        self._writers: list[asyncio.StreamWriter] = []

    async def start(self) -> None:
        self.server = await asyncio.start_server(
            self._serve, "127.0.0.1", 0
        )
        self.port = self.server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting AND drop live connections — a process death."""
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        for writer in self._writers:
            writer.transport.abort()
        self._writers.clear()
        await asyncio.sleep(0)  # let the aborts propagate

    async def _serve(self, reader, writer) -> None:
        self._writers.append(writer)
        try:
            while True:
                message = await read_frame(reader)
                if message is None:
                    return
                self.calls += 1
                if self.delay and message.get("op") == "score":
                    await asyncio.sleep(self.delay)
                # The reply crosses the real codec: encoded by
                # write_frame here, decoded by the router's read_frame.
                response = self.worker.handle(message)
                if "id" in message:
                    response["id"] = message["id"]
                await write_frame(writer, response)
        except ConnectionError:
            pass
        finally:
            writer.close()


class _CorruptWorker(_FakeWorker):
    """Answers every frame with ``payload``: framed, but undecodable."""

    def __init__(self, worker: ShardWorker, payload: bytes):
        super().__init__(worker)
        self.payload = payload

    async def _serve(self, reader, writer) -> None:
        self._writers.append(writer)
        try:
            while await read_frame(reader) is not None:
                writer.write(
                    struct.pack("<I", len(self.payload)) + self.payload
                )
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()


async def _cluster(model, *, shards=SHARDS, delays=None):
    plan = ShardPlan.compute(model.n_documents, shards)
    fakes = []
    for i in range(shards):
        fake = _FakeWorker(
            ShardWorker(model, plan.shard(i)),
            delay=(delays or {}).get(i, 0.0),
        )
        await fake.start()
        fakes.append(fake)
    router = ClusterRouter(plan.n_workers)
    for i, fake in enumerate(fakes):
        await router.attach(i, "127.0.0.1", fake.port)
    return plan, router, fakes


async def _teardown(router, fakes):
    await router.close()
    for fake in fakes:
        await fake.stop()


def _scaled(model, texts):
    return batch_project_queries(model, texts) * model.s


def _whole(model, texts, top=TOP):
    """The whole-model snapshot's rankings: what the router must merge to."""
    return whole_model_search(model, batch_project_queries(model, texts), top)


# --------------------------------------------------------------------- #
def test_router_batch_element_identical_to_flat(router_model):
    model, texts = router_model
    queries = texts[:5]
    flat = _whole(model, queries)

    async def main():
        plan, router, fakes = await _cluster(model)
        try:
            return await router.search_batch(
                _scaled(model, queries), top=TOP, plan=plan
            )
        finally:
            await _teardown(router, fakes)

    result = asyncio.run(main())
    assert result.partial is False
    assert result.missing == []
    assert result.results == flat  # indices, scores, tie order


def test_router_single_query_matches_flat_single(router_model):
    # q=1 takes the GEMV path in the kernel on both sides; parity must
    # hold for it specifically, not only for batches.
    model, texts = router_model
    flat = _whole(model, [texts[2]])

    async def main():
        plan, router, fakes = await _cluster(model)
        try:
            return await router.search_batch(
                _scaled(model, [texts[2]]), top=TOP, plan=plan
            )
        finally:
            await _teardown(router, fakes)

    assert asyncio.run(main()).results == flat


def test_router_dead_worker_degrades_to_partial(router_model):
    model, texts = router_model
    dead_sid = 1
    reported = []

    async def main():
        plan, router, fakes = await _cluster(model)
        router.on_worker_dead = reported.append
        await fakes[dead_sid].stop()  # kills the accepted connection too
        try:
            result = await router.search_batch(
                _scaled(model, texts[:2]), top=TOP, plan=plan
            )
            return plan, result, router.live_workers()
        finally:
            await _teardown(router, fakes)

    plan, result, live = asyncio.run(main())
    assert result.partial is True
    assert result.missing == [tuple(plan.shard(dead_sid).as_pair())]
    assert reported == [dead_sid]
    assert dead_sid not in live
    # Surviving shards' rows are still exact.
    lo, hi = plan.shard(dead_sid).as_pair()
    flat = _whole(model, texts[:2], top=model.n_documents)
    for qi, merged in enumerate(result.results):
        expected = [p for p in flat[qi] if not lo <= p[0] < hi][:TOP]
        assert merged == expected


@pytest.mark.parametrize(
    "payload",
    [b"\x80" + b'{"id":1}', b'{"a":' + b"[" * 100_000, b'{"id":[1]}'],
    ids=["not-utf8", "nested-too-deep", "unhashable-id"],
)
def test_undecodable_reply_closes_the_channel_at_once(router_model, payload):
    # A reply that does not decode leaves the stream out of sync: the
    # channel must close and fail its calls now, so the range takes the
    # dead-worker path instead of waiting out the whole deadline.
    model, texts = router_model
    bad_sid = 1
    reported = []

    async def main():
        plan = ShardPlan.compute(model.n_documents, SHARDS)
        fakes = [
            _CorruptWorker(ShardWorker(model, plan.shard(i)), payload)
            if i == bad_sid else _FakeWorker(ShardWorker(model, plan.shard(i)))
            for i in range(SHARDS)
        ]
        for fake in fakes:
            await fake.start()
        channel = await WorkerChannel.connect("127.0.0.1", fakes[bad_sid].port)
        router = ClusterRouter(plan.n_workers)
        router.on_worker_dead = reported.append
        for i, fake in enumerate(fakes):
            await router.attach(i, "127.0.0.1", fake.port)
        try:
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(channel.call({"op": "ping"}), 1.0)
            t0 = time.perf_counter()
            result = await router.search_batch(
                _scaled(model, texts[:2]), top=TOP, plan=plan,
                timeout_ms=2000.0,
            )
            return plan, result, time.perf_counter() - t0, channel.closed
        finally:
            await channel.close()
            await _teardown(router, fakes)

    plan, result, elapsed, closed = asyncio.run(main())
    assert closed is True
    assert result.partial is True
    assert result.missing == [tuple(plan.shard(bad_sid).as_pair())]
    assert result.deadline_missed == []
    assert elapsed < 0.5  # well inside the 2 s deadline
    assert reported == [bad_sid]


def test_router_all_workers_dead_still_answers(router_model):
    model, texts = router_model

    async def main():
        plan, router, fakes = await _cluster(model)
        for fake in fakes:
            await fake.stop()
        try:
            result = await router.search_batch(
                _scaled(model, texts[:2]), top=TOP, plan=plan
            )
            return plan, result
        finally:
            await _teardown(router, fakes)

    plan, result = asyncio.run(main())
    assert result.partial is True
    assert result.results == [[], []]
    assert result.missing == [
        tuple(s.as_pair()) for s in plan.shards
    ]


def test_router_deadline_miss_is_partial_without_detach(router_model):
    model, texts = router_model
    # No latency history: nothing arms a hedge inside the deadline.
    registry.reset("cluster.worker.2.rpc_seconds")
    before = registry.counter("cluster.deadline_misses_total")

    async def main():
        plan, router, fakes = await _cluster(
            model, delays={2: 3.0}  # shard 2 answers far too slowly
        )
        try:
            result = await router.search_batch(
                _scaled(model, texts[:1]), top=TOP, plan=plan, timeout_ms=150.0
            )
            return plan, result, router.live_workers()
        finally:
            await _teardown(router, fakes)

    plan, result, live = asyncio.run(main())
    assert result.partial is True
    assert result.missing == [tuple(plan.shard(2).as_pair())]
    # Slow is not dead: the channel stays attached (heartbeats decide).
    assert 2 in live
    assert registry.counter("cluster.deadline_misses_total") == before + 1


def test_router_hedges_slow_worker_and_still_answers(router_model):
    model, texts = router_model
    sid = 0
    # Seed shard 0's latency history fast so the hedge arms early.
    registry.reset(f"cluster.worker.{sid}.rpc_seconds")
    for _ in range(30):
        registry.observe(f"cluster.worker.{sid}.rpc_seconds", 0.01)
    before = registry.counter("cluster.hedges_total")
    flat = _whole(model, texts[:1])

    async def main():
        plan, router, fakes = await _cluster(model, delays={sid: 0.4})
        try:
            return await router.search_batch(
                _scaled(model, texts[:1]), top=TOP, plan=plan, timeout_ms=10_000.0
            )
        finally:
            await _teardown(router, fakes)

    result = asyncio.run(main())
    # The hedge fired...
    assert registry.counter("cluster.hedges_total") > before
    # ...and the answer is still complete and exact (hedge hits the same
    # worker, so results are identical whichever copy wins).
    assert result.partial is False
    assert result.results == flat


def test_router_does_not_hedge_a_late_worker_onto_itself(router_model):
    model, texts = router_model
    sid = 0
    # History: p95 is 10 ms, the slowest answer ever 300 ms.  A request
    # running 60 ms is late, not stuck — a duplicate to the same worker
    # could not outrun it and would only add to its load.
    registry.reset(f"cluster.worker.{sid}.rpc_seconds")
    for _ in range(30):
        registry.observe(f"cluster.worker.{sid}.rpc_seconds", 0.01)
    registry.observe(f"cluster.worker.{sid}.rpc_seconds", 0.3)
    before = registry.counter("cluster.hedges_total")
    flat = _whole(model, texts[:1])

    async def main():
        plan, router, fakes = await _cluster(model, delays={sid: 0.06})
        try:
            result = await router.search_batch(
                _scaled(model, texts[:1]), top=TOP, plan=plan, timeout_ms=10_000.0
            )
            return result, fakes[sid].calls
        finally:
            await _teardown(router, fakes)

    result, calls = asyncio.run(main())
    assert registry.counter("cluster.hedges_total") == before
    assert calls == 1
    assert result.partial is False
    assert result.results == flat


def test_router_ping_and_gauge(router_model):
    model, _ = router_model

    async def main():
        plan, router, fakes = await _cluster(model)
        try:
            pings = [await router.ping(i) for i in range(SHARDS)]
            live_before = registry.snapshot()["gauges"]["cluster.workers_live"]
            await router.detach(0)
            live_after = registry.snapshot()["gauges"]["cluster.workers_live"]
            dead_ping = await router.ping(0)
            return pings, live_before, live_after, dead_ping
        finally:
            await _teardown(router, fakes)

    pings, live_before, live_after, dead_ping = asyncio.run(main())
    assert pings == [True, True, True]
    assert live_before == SHARDS
    assert live_after == SHARDS - 1
    assert dead_ping is False


def test_attach_refuses_a_slot_the_fleet_does_not_have():
    router = ClusterRouter(SHARDS)
    for worker_id in (-1, SHARDS):
        with pytest.raises(ClusterError, match="out of range"):
            asyncio.run(router.attach(worker_id, "127.0.0.1", 1))
    assert router.live_workers() == []
