"""The writable cluster: epoch bumps, the fleet's one advance, typed 403s.

Unit layer first (a ShardWorker hot-remapping checkpoints in-process,
``ClusterService.advance`` over a stub router and a real supervisor
record table, the store's fast-update recovery determinism), then the
integrated
write path: a real writable ClusterService ingesting while serving,
with searches racing the seal/bump, and the read-only refusal mapped
through HTTP 403 back to a typed client-side exception.  The
CLI/SIGKILL variant of the ingest-while-serving story lives in
``benchmarks/cluster_ingest_smoke.py``.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.cluster.epochs import (
    EpochHandle,
    open_checkpoint as cluster_open_checkpoint,
)
from repro.cluster.plan import ShardPlan
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.standby import StandbyWriter
from repro.cluster.supervisor import SupervisorConfig
from repro.cluster.worker import ShardWorker
from repro.errors import ClusterReadOnlyError, ShapeError, StoreError
from repro.obs.metrics import registry
from repro.server.client import ServerClient
from repro.server.http import start_http_server
from repro.server.service import QueryService
from repro.server.state import EpochSnapshot, manager_from_texts
from repro.store.checkpoint import load_manifest
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint, recover_manager
from repro.store.sealing import CheckpointPolicy

from tests.test_store_mmap import (
    assert_same_factors,
    assert_same_rankings,
    pending_fast_update_store,
)

SHARDS = 2


def _texts(n, seed=3, vocab_size=40, length=15):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(vocab_size)]
    return [" ".join(rng.choice(vocab, size=length)) for _ in range(n)]


@pytest.fixture()
def store_dir(tmp_path):
    texts = _texts(24)
    ids = [f"D{i}" for i in range(len(texts))]
    data_dir = tmp_path / "store"
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=8)
    )
    store.close(flush=False)
    return data_dir


# --------------------------------------------------------------------- #
# worker hot-remap: bump semantics and the two-epoch window
# --------------------------------------------------------------------- #
def test_worker_bump_idempotence_window_and_skew(store_dir):
    # Grow the store past the seed checkpoint: two more sealed epochs.
    store = DurableIndexStore.open(store_dir)
    store.add_texts(_texts(2, seed=11), ["E1a", "E1b"])
    seal1 = store.seal(reason="test")
    store.add_texts(_texts(2, seed=12), ["E2a", "E2b"])
    seal2 = store.seal(reason="test")
    store.close(flush=False)

    model1 = open_checkpoint(store_dir, seal1.name).model()
    plan1 = ShardPlan.compute(
        model1.n_documents, SHARDS, epoch=seal1.epoch, checkpoint=seal1.name
    )
    worker = ShardWorker(
        model1, plan1.shard(0), epoch=seal1.epoch, data_dir=store_dir
    )
    k = model1.k
    q = np.ones((1, k))

    # Scoring the current epoch (explicitly or by default) works.
    assert "error" not in worker.handle(
        {"op": "score", "queries": q.tolist(), "epoch": seal1.epoch}
    )

    plan2 = ShardPlan.compute(
        model1.n_documents + 2, SHARDS,
        epoch=seal2.epoch, checkpoint=seal2.name,
    )
    ack = worker.bump(plan2.to_json())
    assert ack == {"ok": True, "shard": 0, "epoch": seal2.epoch}
    assert worker.current.epoch == seal2.epoch
    assert worker.bumps_applied == 1

    # Idempotent: re-bumping the live epoch is a noop ack.
    again = worker.bump(plan2.to_json())
    assert again["ok"] and again.get("noop")
    assert worker.bumps_applied == 1

    # The two-epoch window: the superseded epoch still answers (that is
    # the zero-drop guarantee for in-flight queries) ...
    old = worker.handle(
        {"op": "score", "queries": q.tolist(), "epoch": seal1.epoch}
    )
    assert "error" not in old
    new = worker.handle(
        {"op": "score", "queries": q.tolist(), "epoch": seal2.epoch}
    )
    assert "error" not in new
    # ... but an epoch the worker never held (or has dropped) is skew.
    stale = worker.handle(
        {"op": "score", "queries": q.tolist(), "epoch": 999999}
    )
    assert stale.get("stale_epoch") is True
    assert stale["epoch"] == seal2.epoch

    # A bump naming a checkpoint that is not on disk refuses, keeps
    # serving the current epoch.
    ghost = ShardPlan.compute(
        model1.n_documents + 4, SHARDS,
        epoch=seal2.epoch + 7, checkpoint="ckpt-99999999",
    )
    refused = worker.bump(ghost.to_json())
    assert "error" in refused and "ckpt-99999999" in refused["error"]
    assert worker.current.epoch == seal2.epoch


def test_cluster_readers_serve_the_writers_factors(tmp_path):
    # A seal taken with fast-update batches pending: the front end's
    # handle and a worker bumped onto that seal must decode the rotated
    # serving U/Σ the writer scores with, not the consolidated base.
    store, queries = pending_fast_update_store(tmp_path / "store")
    try:
        model = store.manager.model
        handle = EpochHandle.open(store.data_dir, SHARDS)
        assert_same_factors(handle.model, model)
        assert handle.epoch == store.last_seal.epoch

        seed = open_checkpoint(store.data_dir, "ckpt-00000001")
        plan0 = ShardPlan.compute(
            seed.model().n_documents, SHARDS,
            epoch=seed.epoch, checkpoint=seed.name,
        )
        for shard in range(SHARDS):
            worker = ShardWorker(
                seed.model(), plan0.shard(shard), epoch=seed.epoch,
                data_dir=store.data_dir,
            )
            assert worker.bump(handle.plan.to_json())["ok"]
            assert_same_factors(worker.current.model, model)
            rows = handle.plan.shard(shard)
            live = EpochSnapshot(handle.epoch, model, lo=rows.lo, hi=rows.hi)
            assert_same_rankings(worker.current, live, queries)
    finally:
        store.close(flush=False)


def test_plan_disagreeing_with_the_store_is_refused(store_dir):
    sealed = open_checkpoint(store_dir)
    n = sealed.model().n_documents

    def plan(**stamp):
        stamp = {"epoch": sealed.epoch, "checkpoint": sealed.name, **stamp}
        return ShardPlan.compute(stamp.pop("n", n), SHARDS, **stamp)

    assert cluster_open_checkpoint(store_dir, plan())[0] == sealed.epoch
    with pytest.raises(StoreError, match="ckpt-99999999 but it is not under"):
        cluster_open_checkpoint(store_dir, plan(checkpoint="ckpt-99999999"))
    with pytest.raises(StoreError, match="carries epoch .* but the plan says"):
        cluster_open_checkpoint(store_dir, plan(epoch=sealed.epoch + 1))
    with pytest.raises(StoreError, match=f"has {n} documents but the plan"):
        cluster_open_checkpoint(store_dir, plan(n=n + 1))


# --------------------------------------------------------------------- #
# advance: the one path that moves a fleet to a new epoch
# --------------------------------------------------------------------- #
class StubRouter:
    """The router's bump surface: ``broadcast_bump`` records each plan's
    epoch and acks it from the worker slots in ``acking`` (every slot
    when ``None``)."""

    def __init__(self):
        self.bumps: list[int] = []
        self.acking: set[int] | None = None

    async def broadcast_bump(self, plan):
        self.bumps.append(plan.epoch)
        acking = plan.worker_ids() if self.acking is None else self.acking
        return {wid: plan.epoch for wid in acking}


def stub_fleet(data_dir, workers=1, replication=1, **parts):
    """A fleet that spawns nothing: a real ``ClusterService`` over
    ``data_dir`` (its supervisor's record table included) with every
    worker slot up on the served epoch, and a :class:`StubRouter`."""
    service = ClusterService(
        data_dir, ClusterConfig(workers, replication, **parts)
    )
    service.router = StubRouter()
    for wid in service.plan.worker_ids():
        service.supervisor._records[wid].state = "up"
        service.supervisor.note_epoch(wid, service.epoch)
    return service


def seal_more(data_dir, seed):
    """Add two documents to the closed store at ``data_dir`` and seal."""
    store = DurableIndexStore.open(data_dir)
    store.add_texts(_texts(2, seed=seed), [f"S{seed}a", f"S{seed}b"])
    seal = store.seal(reason="test")
    store.close(flush=False)
    return seal


def quorum_misses():
    return registry.snapshot()["counters"].get(
        "cluster.bump_quorum_misses_total", 0
    )


def test_a_quorum_miss_parks_the_handle_and_the_retry_opens_nothing(
    store_dir, open_counts
):
    service = stub_fleet(store_dir, workers=3, replication=3)  # quorum 2
    served = service.epoch
    seal = seal_more(store_dir, seed=11)
    service.router.acking = {0}
    misses = quorum_misses()
    asyncio.run(service.advance(seal.name))
    assert (service.epoch, service.target_epoch) == (served, seal.epoch)
    assert quorum_misses() == misses + 1
    # Future restarts already start on the parked epoch.
    assert service.supervisor.plan.epoch == seal.epoch

    open_counts.reset()
    service.router.acking = None
    asyncio.run(service.advance(None))
    assert open_counts.parses == [] and open_counts.crcs == []
    assert service.epoch == service.target_epoch == seal.epoch
    assert service.router.bumps == [seal.epoch, seal.epoch]
    assert quorum_misses() == misses + 1


def test_a_newer_checkpoint_replaces_a_parked_one(store_dir):
    service = stub_fleet(store_dir, workers=3, replication=3)
    older = seal_more(store_dir, seed=11)
    newer = seal_more(store_dir, seed=12)
    service.router.acking = {0}
    asyncio.run(service.advance(older.name))
    assert service.target_epoch == older.epoch
    asyncio.run(service.advance(newer.name))
    assert service.target_epoch == newer.epoch
    asyncio.run(service.advance(older.name))  # not newer than the parked
    assert service.target_epoch == newer.epoch

    service.router.acking = None
    asyncio.run(service.advance(None))
    assert service.epoch == newer.epoch
    assert service.handle.checkpoint == newer.name
    assert service.router.bumps == [older.epoch] + [newer.epoch] * 3


def test_a_standby_poll_rebumps_a_worker_behind_the_served_epoch(
    store_dir, open_counts
):
    seed = open_checkpoint(store_dir).epoch
    seal_more(store_dir, seed=11)
    service = stub_fleet(store_dir, workers=2)
    service.supervisor.note_epoch(1, seed)  # up, but behind
    standby = StandbyWriter(store_dir)
    standby._service = service
    try:
        open_counts.reset()
        asyncio.run(standby._follow_epochs())
        assert service.router.bumps == [service.epoch]
        assert [row["epoch"] for row in service.supervisor.describe()] == [
            service.epoch, service.epoch,
        ]
        asyncio.run(standby._follow_epochs())  # nobody behind: no bump
        assert service.router.bumps == [service.epoch]
        assert open_counts.crcs == []
    finally:
        asyncio.run(standby.stop())


def test_idle_standby_poll_reads_no_array_bytes(store_dir, open_counts):
    older = seal_more(store_dir, seed=11)
    behind, stale = stub_fleet(store_dir), stub_fleet(store_dir)
    newer = seal_more(store_dir, seed=12)
    caught_up = stub_fleet(store_dir)

    standby = StandbyWriter(store_dir)
    try:
        # Caught up: N polls parse the newest manifest, CRC nothing.
        standby._service = caught_up
        open_counts.reset()
        for _ in range(5):
            asyncio.run(standby._follow_epochs())
        assert open_counts.crcs == [] and caught_up.router.bumps == []
        assert set(open_counts.parses) == {newer.path}
        assert standby.describe()["tail_epoch"] == newer.epoch

        # Behind: the newer seal is verified once, then followed.
        standby._service = behind
        asyncio.run(standby._follow_epochs())
        assert sorted(open_counts.crcs) == sorted(newer.path.glob("*.npy"))
        assert behind.epoch == newer.epoch
        assert behind.router.bumps == [newer.epoch]
        assert standby.events[-1]["event"] == "followed_epoch"

        # A corrupt newest seal falls back to the last valid one, which
        # is not news to a service already on it.
        # The file the serving V is read from: model_V when documents
        # were pending at the seal, base_V otherwise.
        entries = load_manifest(newer.path)["arrays"]
        victim = newer.path / entries.get("model_V", entries["base_V"])["file"]
        blob = bytearray(victim.read_bytes())
        blob[-1] ^= 0xFF
        victim.write_bytes(bytes(blob))
        standby._service = stale
        asyncio.run(standby._follow_epochs())
        assert stale.epoch == stale.target_epoch == older.epoch
        assert stale.router.bumps == []
    finally:
        asyncio.run(standby.stop())


def test_a_corrupt_newest_seal_is_verified_once_not_per_poll(
    store_dir, open_counts
):
    older = seal_more(store_dir, seed=11)
    service = stub_fleet(store_dir)
    corrupt = seal_more(store_dir, seed=12)
    entries = load_manifest(corrupt.path)["arrays"]
    victim = corrupt.path / entries.get("model_V", entries["base_V"])["file"]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0xFF
    victim.write_bytes(bytes(blob))

    standby = StandbyWriter(store_dir)
    standby._service = service
    try:
        open_counts.reset()
        asyncio.run(standby._follow_epochs())
        # Verified, found corrupt, fell back to the one already served.
        assert victim in open_counts.crcs
        assert service.epoch == service.target_epoch == older.epoch
        crcs = len(open_counts.crcs)
        for _ in range(2):
            asyncio.run(standby._follow_epochs())
        assert len(open_counts.crcs) == crcs  # not once more per poll
        assert service.router.bumps == []

        # A later valid seal is still followed.
        newer = seal_more(store_dir, seed=13)
        asyncio.run(standby._follow_epochs())
        assert service.epoch == newer.epoch > corrupt.epoch
        assert service.router.bumps == [newer.epoch]
    finally:
        asyncio.run(standby.stop())


def test_bump_refused_without_data_dir(store_dir):
    handle = EpochHandle.open(store_dir, SHARDS)
    worker = ShardWorker(handle.model, handle.plan.shard(0))
    refused = worker.bump(handle.plan.to_json())
    assert "error" in refused


# --------------------------------------------------------------------- #
# fast-update ingest through the store: crash recovery determinism
# --------------------------------------------------------------------- #
def test_fast_update_store_recovery_bit_identical(tmp_path):
    texts = _texts(20, seed=5)
    manager = manager_from_texts(
        texts, [f"D{i}" for i in range(20)], k=6,
        ingest_method="fast-update", fast_update_rank=4,
    )
    store = DurableIndexStore.initialize(tmp_path / "s", manager)
    for i, text in enumerate(_texts(5, seed=6)):
        store.add_texts([text], doc_ids=[f"F{i}"])
    live = store.manager
    assert live.model.provenance == "fast-update"
    store.close(flush=False)  # crash-like: WAL holds the fast updates

    recovered, report = recover_manager(
        *DurableIndexStore.paths(tmp_path / "s")
    )
    assert report.replayed_records == 5
    assert recovered.ingest_method == "fast-update"
    assert recovered.fast_update_rank == 4
    assert np.array_equal(live.model.U, recovered.model.U)
    assert np.array_equal(live.model.s, recovered.model.s)
    assert np.array_equal(live.model.V, recovered.model.V)
    assert live.model.doc_ids == recovered.model.doc_ids


# --------------------------------------------------------------------- #
# the integrated write path: ingest while serving, zero drops
# --------------------------------------------------------------------- #
def test_readonly_service_add_raises_typed_error(store_dir):
    service = ClusterService(store_dir, ClusterConfig(workers=SHARDS))
    with pytest.raises(ClusterReadOnlyError):
        asyncio.run(service.add(["new doc"]))


def test_writable_cluster_ingests_bumps_and_serves(store_dir):
    async def main():
        service = ClusterService(
            store_dir,
            ClusterConfig(
                workers=SHARDS,
                writer=CheckpointPolicy(3, 0.5, on_consolidate=False),
                supervisor=SupervisorConfig(heartbeat_interval=0.2),
            ),
        )
        await service.start()
        try:
            h0 = service.healthz()
            assert h0["writer"]["enabled"]
            assert h0["writer"]["ingest_method"] == "fast-update"
            assert h0["writer"]["lag_records"] == 0
            epoch0 = service.epoch

            # Bad ids are refused before the WAL, as on a single node.
            for bad in ("xy", ["same", "same"]):
                with pytest.raises(ShapeError):
                    await service.add(_texts(2, seed=99), bad)
            assert service.healthz()["writer"]["lag_records"] == 0

            # Ingest past the record threshold while racing searches.
            drops = 0
            for i in range(5):
                ack = await service.add(
                    _texts(1, seed=100 + i), [f"N{i}"]
                )
                assert ack["durable"]
                r, _ = await service.search("w1 w2 w3", top=5)
                drops += int(r["partial"])
            assert drops == 0

            # The seal loop bumps; every worker lands on the new epoch.
            deadline = asyncio.get_event_loop().time() + 30
            while service.epoch == epoch0:
                assert (
                    asyncio.get_event_loop().time() < deadline
                ), "no epoch bump observed"
                await asyncio.sleep(0.05)
            h1 = service.healthz()
            assert h1["epoch"] > epoch0
            assert h1["n_documents"] == 29

            # New documents are searchable; the answer is not partial.
            r, _ = await service.search("w1 w2 w3", top=29)
            assert r["partial"] is False
            assert {row[2] for row in r["results"]} >= {
                f"N{i}" for i in range(5)
            }

            # Lag drains to zero once the age trigger seals the tail.
            deadline = asyncio.get_event_loop().time() + 30
            while True:
                h = service.healthz()
                if h["writer"]["lag_records"] == 0 and all(
                    w["epoch"] == h["epoch"] for w in h["workers"]
                ):
                    break
                assert (
                    asyncio.get_event_loop().time() < deadline
                ), f"lag never drained: {h['writer']}"
                await asyncio.sleep(0.1)
        finally:
            await service.drain()

    asyncio.run(main())


# --------------------------------------------------------------------- #
# HTTP: the read-only refusal is a typed 403 end to end
# --------------------------------------------------------------------- #
class _ClusterThread:
    """A read-only cluster + HTTP front end on a private loop/thread."""

    def __init__(self, data_dir):
        self.data_dir = data_dir
        self.port = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            service = QueryService(
                ClusterService(
                    self.data_dir,
                    ClusterConfig(
                        workers=SHARDS,
                        supervisor=SupervisorConfig(heartbeat_interval=0.2),
                    ),
                )
            )
            server = await start_http_server(service, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
            server.close()
            await server.wait_closed()
            await service.drain()

        try:
            asyncio.run(main())
        except Exception as exc:  # pragma: no cover — surfaced in __enter__
            self._error = exc
            self._ready.set()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=60), "cluster failed to start"
        if self._error is not None:
            raise self._error
        return self

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        assert not self._thread.is_alive(), "cluster failed to drain"


def test_http_readonly_add_is_typed_403_with_request_id(store_dir):
    with _ClusterThread(store_dir) as cluster:
        with ServerClient(port=cluster.port) as client:
            assert client.healthz()["writer"] == {"enabled": False}
            with pytest.raises(ClusterReadOnlyError) as excinfo:
                client.add(["a new document"], ["X0"])
            exc = excinfo.value
            # The server-assigned request id rides on the exception.
            assert exc.request_id
            assert exc.request_id == client.last_request_id
            assert exc.request_id in str(exc)
            # Reads still work on the same cluster, same client.
            assert client.search("w1 w2", top=3)["partial"] is False
