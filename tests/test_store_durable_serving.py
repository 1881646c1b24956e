"""Tests for the durable serving layer: store, seal loop, CLI glue."""

import asyncio
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster.standby import StandbyConfig
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.errors import ShapeError, StoreError, StoreLockedError
from repro.obs.metrics import registry
from repro.server.service import QueryService
from repro.server.state import ServingState, manager_from_texts
from repro.store import durable
from repro.store.checkpoint import list_checkpoints
from repro.store.durable import DurableIndexStore, RETAIN, read_store_status
from repro.store.lock import StoreLock
from repro.store.mmap_io import open_latest_model
from repro.store.recovery import open_checkpoint
from repro.store.sealing import CheckpointPolicy, SWITCH_INTERVAL_S
from repro.store.wal import scan_wal
from tests.test_cluster_writable import stub_fleet
from tests.test_store_checkpoint_wal import array_files


@pytest.fixture(scope="module")
def corpus():
    col = topic_collection(
        SyntheticSpec(n_topics=3, docs_per_topic=10, doc_length=25,
                      concepts_per_topic=8, queries_per_topic=2),
        seed=11,
    )
    return col.documents[:20], col.documents[20:], col.queries


def seeded_store(corpus, tmp_path, name="store", **fit):
    train, _, _ = corpus
    manager = manager_from_texts(train, k=6, **fit)
    manager.distortion_budget = 0.2
    return DurableIndexStore.initialize(tmp_path / name, manager)


# --------------------------------------------------------------------- #
# the store itself
# --------------------------------------------------------------------- #
def test_initialize_writes_checkpoint_and_refuses_overwrite(corpus, tmp_path):
    store = seeded_store(corpus, tmp_path)
    assert DurableIndexStore.exists(tmp_path / "store")
    assert len(list_checkpoints(store.checkpoints_dir)) == 1
    assert store.dirty_records == 0
    with pytest.raises(StoreError, match="open it instead"):
        DurableIndexStore.initialize(tmp_path / "store", store.manager)
    store.close()


def test_every_add_is_wal_logged_before_apply(corpus, tmp_path):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]], doc_ids=["A"])
    store.add_texts([later[1]])
    assert store.wal.n_records == 2
    assert store.dirty_records == 2
    ops = [r.op for r in scan_wal(store.wal.path).records]
    assert ops == ["add_counts", "add_counts"]  # texts normalized first
    store.close(flush=False)


def test_invalid_mutation_is_not_logged(corpus, tmp_path):
    store = seeded_store(corpus, tmp_path)
    with pytest.raises(ShapeError):
        store.add_counts(np.zeros((3, 1)), ["bad"])
    with pytest.raises(ShapeError):
        store.add_texts([])
    with pytest.raises(ShapeError, match="doc_ids"):
        store.add_counts(np.zeros((store.manager.model.n_terms, 2)), ["one"])
    assert store.wal.n_records == 0  # the WAL never saw the rejects
    store.close(flush=False)


def test_close_flush_writes_final_checkpoint(corpus, tmp_path):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    assert store.dirty_records == 1
    store.close(flush=True)
    reopened = DurableIndexStore.open(tmp_path / "store")
    assert reopened.last_recovery.replayed_records == 0  # nothing to replay
    assert reopened.manager.n_documents == 21
    with pytest.raises(StoreError, match="closed"):
        store.add_texts([later[1]])
    reopened.close(flush=False)


def test_retain_prunes_old_checkpoints(corpus, tmp_path):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    for i in range(4):
        store.add_texts([later[i]])
        store.seal(f"step{i}")
    infos = list_checkpoints(store.checkpoints_dir)
    assert len(infos) == RETAIN == 3
    assert infos[-1].checkpoint_id == 5  # ids keep counting past pruning
    store.close(flush=False)


def test_store_gauges_published(corpus, tmp_path):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    snap = registry.snapshot()["gauges"]
    assert snap["store.wal_records"] == 1
    assert snap["store.dirty_records"] == 1
    assert snap["store.checkpoint_age_seconds"] >= 0.0
    assert "store.last_recovery_replayed" in snap
    store.close(flush=False)


def test_single_writer_lock_excludes_second_open(corpus, tmp_path):
    store = seeded_store(corpus, tmp_path)
    with pytest.raises(StoreLockedError, match="locked"):
        DurableIndexStore.open(tmp_path / "store")
    store.close(flush=False)  # close releases the lock ...
    reopened = DurableIndexStore.open(tmp_path / "store")  # ... so this works
    reopened.close(flush=False)


def test_readonly_status_and_stats_against_live_store(corpus, tmp_path):
    import io

    from repro.cli import main

    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    wal_size = store.wal.size_bytes
    data_dir = str(tmp_path / "store")

    # Read-only views work while the live store holds the writer lock.
    status = read_store_status(data_dir)
    assert status["wal"]["records"] == 1
    assert status["dirty_records"] == 1
    assert status["n_documents"] == 21
    assert status["checkpoint_pending"] == 0 and status["wal_documents"] == 1
    assert status["last_recovery_replayed"] == 1  # what a cold start replays
    assert status["problems"] == []

    out = io.StringIO()
    assert main(["stats", "--data-dir", data_dir], out=out) == 0
    assert "store.wal_records" in out.getvalue()
    out = io.StringIO()
    assert main(["--no-obs", "store", "inspect", data_dir], out=out) == 0
    assert "would replay 1 record(s)" in out.getvalue()

    # None of that touched the live WAL (no truncation, no writes) ...
    assert (tmp_path / "store" / "wal.log").stat().st_size == wal_size

    # ... while compact, a writer, is refused with the lock held.
    out = io.StringIO()
    assert main(["--no-obs", "store", "compact", data_dir], out=out) == 1

    # The live store is unharmed and still writable.
    store.add_texts([later[1]])
    assert store.wal.n_records == 2
    store.close(flush=False)


def test_readonly_status_tracks_consolidation(corpus, tmp_path):
    """A consolidation inside ``add_counts`` logs no record of its own,
    so the scan cannot tell how many WAL documents are still pending: it
    reports the checkpoint's pending count and the WAL's documents."""
    train, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    actions = [store.add_texts([text]).action for text in later]
    assert actions[4] != "fold-in"  # the fifth batch consolidates
    assert store.manager.pending == 5
    status = read_store_status(tmp_path / "store")
    assert "pending" not in status
    assert status["checkpoint_pending"] == 0
    assert status["wal_documents"] == 10
    assert status["n_documents"] == store.manager.n_documents == 30
    store.seal()
    status = read_store_status(tmp_path / "store")
    assert status["checkpoint_pending"] == store.manager.pending == 5
    assert status["wal_documents"] == 0
    store.close(flush=False)


def test_apply_failure_rolls_back_wal(corpus, tmp_path, monkeypatch):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)

    def boom(counts, doc_ids):
        raise RuntimeError("numerical failure after the WAL append")

    monkeypatch.setattr(store.manager, "add_counts", boom)
    with pytest.raises(RuntimeError, match="numerical failure"):
        store.add_texts([later[0]], doc_ids=["X"])
    monkeypatch.undo()

    # The unapplied record was physically rolled back: recovery will
    # never replay a mutation the live index refused.
    assert store.wal.n_records == 0
    store.add_texts([later[0]], doc_ids=["X"])
    assert [r.lsn for r in scan_wal(store.wal.path).records] == [1]  # LSN not burned
    store.close(flush=False)

    reopened = DurableIndexStore.open(tmp_path / "store")
    assert reopened.last_recovery.replayed_records == 1
    assert reopened.manager.n_documents == 21
    reopened.close(flush=False)


# --------------------------------------------------------------------- #
# checkpoint policy + the one store owner, as ``serve --data-dir`` and
# the fleet run it
# --------------------------------------------------------------------- #
def test_checkpoint_policy_triggers():
    policy = CheckpointPolicy(every_records=4, every_seconds=60.0)
    assert policy.due(dirty_records=0, seconds_since=0, consolidated=False) is None
    assert policy.due(dirty_records=4, seconds_since=0, consolidated=False)
    assert policy.due(dirty_records=1, seconds_since=61, consolidated=False)
    # idle time alone never fires
    assert policy.due(dirty_records=0, seconds_since=999, consolidated=False) is None
    assert policy.due(dirty_records=1, seconds_since=0, consolidated=True) == (
        "consolidation"
    )
    off = CheckpointPolicy(every_records=None, every_seconds=None,
                           on_consolidate=False)
    assert off.due(dirty_records=99, seconds_since=999, consolidated=True) is None


def seeded_dir(corpus, path, **fit):
    """A closed seeded store at ``path``."""
    seeded_store(corpus, path.parent, path.name, **fit).close(flush=False)
    return path


def in_process(data_dir, policy):
    """The owner ``serve --data-dir`` runs over the store at
    ``data_dir``, and its ``/add``."""
    state = ServingState.for_store(DurableIndexStore.open(data_dir), policy)
    return state.writer, QueryService(state).add


def fleet(data_dir, policy):
    """The owner a writable fleet opens over the store at ``data_dir``
    (a fleet that spawns no workers, its bumps acked by a stub router),
    and its ``/add``."""
    service = stub_fleet(data_dir, writer=policy)
    return service.writer, service.add


OWNERS = (in_process, fleet)
each_owner = pytest.mark.parametrize(
    "owner", OWNERS, ids=lambda owner: owner.__name__
)


def sealed_reason(store):
    return list_checkpoints(store.checkpoints_dir)[-1].meta["reason"]


def full_disk(*args, **kwargs):
    raise OSError("disk full")


async def eventually(condition, what, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, what
        await asyncio.sleep(0.02)


def test_maybe_checkpoint_follows_policy(corpus, tmp_path):
    """The record and the age trigger, under both owners."""
    _, later, _ = corpus

    async def main():
        for owner in OWNERS:
            writer, _ = owner(
                seeded_dir(corpus, tmp_path / owner.__name__),
                CheckpointPolicy(every_records=2, every_seconds=None),
            )
            store = writer.store
            sealed = len(list_checkpoints(store.checkpoints_dir))
            store.add_texts([later[0]])
            assert await writer.tick() is None
            store.add_texts([later[1]])
            seal = await writer.tick()
            assert seal is store.last_seal
            assert sealed_reason(store) == "wal_records>=2"
            assert store.dirty_records == 0
            assert len(list_checkpoints(store.checkpoints_dir)) == sealed + 1
            assert writer.seals_total == 1
            await writer.stop(flush=False)

        for owner in OWNERS:
            writer, _ = owner(
                seeded_dir(corpus, tmp_path / "age" / owner.__name__),
                CheckpointPolicy(every_records=None, every_seconds=0.5),
            )
            store = writer.store
            store.add_texts([later[0]])
            assert await writer.tick() is None
            await asyncio.sleep(0.6)
            assert await writer.tick() is not None
            assert sealed_reason(store) == "age>=0.5s"
            await writer.stop(flush=False)

    asyncio.run(main())


def add_consolidating(store, later):
    """Add six documents at once — past the 0.2 budget of a seeded store
    or of one that has consolidated once — so the add consolidates."""
    assert store.add_texts(later[:6]).action in ("svd-update", "recompute")


def test_consolidation_trigger_survives_checkpoint_failure(
    corpus, tmp_path, monkeypatch
):
    """Under both owners, a consolidation that lands after a seal's
    capture still triggers the next seal, and a failed seal loses none;
    the in-process policy honours a consolidation, the fleet's ignores
    it."""
    _, later, _ = corpus
    write_checkpoint = durable.write_checkpoint

    async def main():
        for owner in OWNERS:
            writer, _ = owner(
                seeded_dir(corpus, tmp_path / owner.__name__),
                CheckpointPolicy(every_records=None, every_seconds=None),
            )
            store = writer.store
            add_consolidating(store, later)

            monkeypatch.setattr(durable, "write_checkpoint", full_disk)
            with pytest.raises(OSError, match="disk full"):
                await writer.tick()
            # ... but the consolidation was not lost with it.

            def racing(*args, **kwargs):
                add_consolidating(store, later)  # lands after the capture
                return write_checkpoint(*args, **kwargs)

            monkeypatch.setattr(durable, "write_checkpoint", racing)
            assert await writer.tick() is not None
            assert sealed_reason(store) == "consolidation"
            monkeypatch.setattr(durable, "write_checkpoint", write_checkpoint)
            # The consolidation the capture missed triggers the next seal
            # ...
            assert store.consolidations_since_checkpoint == 1
            assert await writer.tick() is not None
            assert sealed_reason(store) == "consolidation"
            # ... and a seal debits what it captured: no spurious one.
            assert await writer.tick() is None
            await writer.stop(flush=False)

        deployed = {
            in_process: CheckpointPolicy(every_records=64),  # serve
            fleet: CheckpointPolicy(64, 15.0, on_consolidate=False),
        }
        for owner, policy in deployed.items():
            writer, _ = owner(
                seeded_dir(corpus, tmp_path / "deployed" / owner.__name__),
                policy,
            )
            add_consolidating(writer.store, later)
            seal = await writer.tick()
            assert (seal is not None) == (owner is in_process)
            await writer.stop(flush=False)

    asyncio.run(main())


def test_background_checkpointer_thread(corpus, tmp_path, monkeypatch):
    """The owner's loop runs from its start to its stop, seals on its
    de-prioritised thread, and counts and retries a failed seal."""
    _, later, _ = corpus

    def errors():
        return registry.snapshot()["counters"].get(
            "store.checkpoint_errors", 0
        )

    async def main():
        policy = CheckpointPolicy(every_records=1, every_seconds=None)
        writer, add = in_process(
            seeded_dir(corpus, tmp_path / "in-process"), policy
        )
        writer.start()  # what ``serve`` does at server start
        assert writer.running
        failed = errors()
        monkeypatch.setattr(durable, "write_checkpoint", full_disk)
        await add([later[0]])
        await eventually(lambda: errors() > failed, "no failed tick counted")
        monkeypatch.undo()
        await eventually(
            lambda: writer.store.dirty_records == 0, "the retry never sealed"
        )
        assert "repro-writer" in {
            t.name.rsplit("_", 1)[0] for t in threading.enumerate()
        }
        await writer.stop(flush=False)
        assert not writer.running

        interval = sys.getswitchinterval()
        service = stub_fleet(
            seeded_dir(corpus, tmp_path / "fleet"), writer=policy
        )
        writer, served = service.writer, service.epoch
        writer.start()
        assert writer.running
        await service.add([later[0]])
        # The tick publishes once the seal has returned: wait for that,
        # not for the seal.
        await eventually(
            lambda: service.epoch > served, "the fleet never published its seal"
        )
        assert service.epoch == writer.sealed_epoch
        assert service.router.bumps == [writer.sealed_epoch]
        await writer.stop(flush=False)
        assert not writer.running
        assert sys.getswitchinterval() == interval

    asyncio.run(main())


# --------------------------------------------------------------------- #
# one owner: boot, ack, close — the same rules under both
# --------------------------------------------------------------------- #
@each_owner
def test_boot_over_a_dirty_wal_seals_recover(corpus, tmp_path, owner):
    """Records WAL replay restored are sealed before the owner serves."""
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    store.add_texts([later[1]])
    store.close(flush=False)
    writer, _ = owner(tmp_path / "store", CheckpointPolicy())
    assert sealed_reason(writer.store) == "recover"
    assert writer.store.dirty_records == 0
    assert writer.sealed_epoch == writer.wal_lsn == 2
    asyncio.run(writer.stop(flush=False))


@each_owner
def test_clean_boot_writes_no_checkpoint(corpus, tmp_path, owner):
    """With nothing to replay (and the fleet's ingest kernel already
    stamped) the owner writes nothing, and ``sealed_epoch`` is the
    opened checkpoint's."""
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path, ingest_method="fast-update")
    store.add_texts([later[0]])
    store.add_texts([later[1]])
    store.seal()
    store.close(flush=False)
    before = [info.path for info in list_checkpoints(store.checkpoints_dir)]
    writer, _ = owner(tmp_path / "store", CheckpointPolicy())
    after = [info.path for info in list_checkpoints(store.checkpoints_dir)]
    assert after == before
    assert writer.sealed_epoch == 2
    assert writer.store.last_seal.path == before[-1]
    asyncio.run(writer.stop(flush=False))


@each_owner
def test_an_add_waits_for_the_seal_in_flight(
    corpus, tmp_path, owner, monkeypatch
):
    """An ``/add`` sent while a seal runs completes after it, on the
    owner's ``repro-writer`` thread."""
    _, later, _ = corpus
    write_checkpoint = durable.write_checkpoint
    sealing, release = threading.Event(), threading.Event()
    order = []

    def slow_write(*args, **kwargs):
        sealing.set()
        release.wait(10)
        info = write_checkpoint(*args, **kwargs)
        order.append("sealed")
        return info

    async def main():
        writer, add = owner(
            seeded_dir(corpus, tmp_path / "store"),
            CheckpointPolicy(every_records=1, every_seconds=None),
        )
        store = writer.store
        add_texts = store.add_texts

        def traced(texts, doc_ids=None):
            event = add_texts(texts, doc_ids)
            order.append(threading.current_thread().name)
            return event

        store.add_texts = traced
        await add([later[0]])  # dirty: the next tick seals
        order.clear()
        monkeypatch.setattr(durable, "write_checkpoint", slow_write)
        seal = asyncio.ensure_future(writer.tick())
        assert await asyncio.to_thread(sealing.wait, 10)
        second = asyncio.ensure_future(add([later[1]]))
        await asyncio.sleep(0.2)
        assert not second.done(), "the add ran beside the seal"
        release.set()
        await seal
        await second
        assert order[0] == "sealed"
        assert order[1].startswith("repro-writer"), order
        await writer.stop(flush=False)

    asyncio.run(main())


@each_owner
def test_stop_flushes_frees_the_lock_and_the_switch_interval(
    corpus, tmp_path, owner
):
    """``stop(flush=True)`` seals what is dirty, releases the lock and
    restores the switch interval the owner held while it ran."""
    _, later, _ = corpus

    async def main():
        interval = sys.getswitchinterval()
        writer, add = owner(
            seeded_dir(corpus, tmp_path / "store"),
            CheckpointPolicy(every_records=None, every_seconds=None),
        )
        writer.start()
        assert sys.getswitchinterval() == min(interval, SWITCH_INTERVAL_S)
        await add([later[0]])
        assert writer.store.dirty_records == 1
        await writer.stop(flush=True)
        assert writer.store.dirty_records == 0
        assert sealed_reason(writer.store) == "close"
        assert sys.getswitchinterval() == interval
        StoreLock.acquire(tmp_path / "store").release()

    asyncio.run(main())


@each_owner
def test_failed_boot_seal_frees_the_lock(corpus, tmp_path, owner, monkeypatch):
    """A boot seal that raises closes the store — WAL handle and lock —
    so a retry opens it and serves."""
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    store.close(flush=False)  # a dirty WAL: the boot must seal
    monkeypatch.setattr(durable, "write_checkpoint", full_disk)
    with pytest.raises(OSError, match="disk full"):
        owner(tmp_path / "store", CheckpointPolicy())
    monkeypatch.undo()
    StoreLock.acquire(tmp_path / "store").release()

    async def main():
        writer, add = owner(tmp_path / "store", CheckpointPolicy())
        assert sealed_reason(writer.store) == "recover"
        assert (await add([later[1]]))["n_documents"] == 22
        await writer.stop(flush=False)

    asyncio.run(main())


def test_adoption_publishes_a_seal_the_standby_never_followed(
    corpus, tmp_path
):
    """With no dirty WAL the adoption writes no checkpoint and still
    publishes the one the dead primary sealed after the standby's last
    follow."""
    _, later, _ = corpus
    data_dir = seeded_dir(
        corpus, tmp_path / "store", ingest_method="fast-update"
    )
    # Still serving the seed.
    service = stub_fleet(data_dir, standby=StandbyConfig(poll_seconds=60.0))
    primary = DurableIndexStore.open(data_dir)
    primary.add_texts([later[0]])
    primary.seal(reason="primary")
    primary.close(flush=False)

    async def main():
        standby = service.standby
        standby._service = service
        await standby._try_adopt()
        assert standby.promoted and service.writer.running
        assert service.epoch == 1 and service.router.bumps == [1]
        assert sealed_reason(service.writer.store) == "primary"
        await service.writer.stop(flush=False)
        await standby.stop()

    asyncio.run(main())


# --------------------------------------------------------------------- #
# durable serving state
# --------------------------------------------------------------------- #
def test_durable_serving_routes_adds_through_wal(corpus, tmp_path):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    state = ServingState.for_store(store)
    assert state.writable
    before = state.current()
    result = state.add_texts([later[0]], doc_ids=["NEW"])
    after = state.current()
    assert after.epoch == before.epoch + 1
    assert result["n_documents"] == after.n_documents == 21
    assert store.wal.n_records == 1  # the add went through the WAL
    assert registry.snapshot()["gauges"]["server.epoch"] == after.epoch
    store.close(flush=False)


def test_an_in_process_state_reports_the_stores_epoch(corpus, tmp_path):
    """One epoch number per store: a state over a store starts at the
    WAL LSN, each durable add reports its record's LSN (+1 per add), a
    restart never goes backwards, and a read-only open reports the
    checkpoint's epoch."""
    _, later, _ = corpus
    data_dir = tmp_path / "store"
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]], doc_ids=["PRE"])
    state = ServingState.for_store(store)
    assert state.current().epoch == store.wal.last_lsn == 1
    for i, text in enumerate(later[1:4]):
        added = state.add_texts([text], doc_ids=[f"N{i}"])
        assert added["epoch"] == store.wal.last_lsn == 2 + i
        assert state.describe()["epoch"] == added["epoch"]
    before = state.current().epoch
    store.close(flush=False)  # crash-like exit: the WAL holds the adds

    reopened = ServingState.for_store(DurableIndexStore.open(data_dir))
    assert reopened.current().epoch == reopened.store.wal.last_lsn >= before
    assert reopened.add_texts([later[4]], doc_ids=["N9"])["epoch"] == before + 1
    reopened.store.close()  # seals the add

    opened = ServingState.open(data_dir)
    assert opened.current().epoch == open_checkpoint(data_dir).epoch
    assert opened.current().epoch == before + 1


def test_the_front_end_drain_closes_an_in_process_store(corpus, tmp_path):
    """The backend owns its writer: ``QueryService.drain()`` over a
    durable state flushes and closes the store, with no caller help."""
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    state = ServingState.for_store(
        store, CheckpointPolicy(every_records=None, every_seconds=None)
    )

    async def main():
        service = QueryService(state)
        await service.start()
        assert state.writer.running
        await service.add([later[0]], doc_ids=["NEW"])
        assert store.dirty_records == 1
        await service.drain()
        await service.drain()  # a second drain finds the store closed

    asyncio.run(main())
    assert not state.writer.running
    assert store.dirty_records == 0 and sealed_reason(store) == "close"
    with pytest.raises(StoreError, match="closed"):
        store.add_texts([later[1]], doc_ids=["LATE"])
    # The lock went with the close: the directory opens again, whole.
    reopened = DurableIndexStore.open(tmp_path / "store")
    assert reopened.last_recovery.replayed_records == 0
    assert reopened.manager.model.doc_ids[-1] == "NEW"
    reopened.close(flush=False)


def test_store_rejects_bad_doc_ids_before_the_wal(corpus, tmp_path):
    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    held = store.manager.model.doc_ids[0]
    for bad in ("xy", [7, None], [held, "fresh"], ["same", "same"]):
        with pytest.raises(ShapeError):
            store.add_texts(later[:2], doc_ids=bad)
    assert store.wal.n_records == 0
    store.add_texts(later[:2], doc_ids=["new-a", "new-b"])
    store.close(flush=False)
    ids = DurableIndexStore.open(tmp_path / "store").manager.model.doc_ids
    assert len(set(ids)) == len(ids) and ids[-2:] == ["new-a", "new-b"]


def test_recovered_serving_state_search_parity(corpus, tmp_path):
    _, later, queries = corpus
    store = seeded_store(corpus, tmp_path)
    state = ServingState.for_store(store)
    for i, text in enumerate(later[:4]):
        state.add_texts([text], doc_ids=[f"N{i}"])
    snapshot = state.current()
    Q = np.stack([snapshot.project(q) for q in queries])
    expected = snapshot.score_batch(Q)
    store.close(flush=False)  # crash-like exit

    recovered = ServingState.for_store(
        DurableIndexStore.open(tmp_path / "store")
    )
    snap2 = recovered.current()
    assert snap2.n_documents == snapshot.n_documents
    got = snap2.score_batch(np.stack([snap2.project(q) for q in queries]))
    assert np.array_equal(expected, got)
    recovered.store.close(flush=False)


def test_mmap_replica_scores_match_writer(corpus, tmp_path):
    _, later, queries = corpus
    store = seeded_store(corpus, tmp_path)
    state = ServingState.for_store(store)
    for text in later[:3]:
        state.add_texts([text])
    store.seal("replica-sync")
    snapshot = state.current()
    expected = snapshot.score_batch(
        np.stack([snapshot.project(q) for q in queries])
    )
    store.close(flush=False)

    replica = ServingState.for_model(
        open_latest_model(tmp_path / "store", mmap=True)
    )
    assert not replica.writable
    snap = replica.current()
    got = snap.score_batch(np.stack([snap.project(q) for q in queries]))
    assert np.array_equal(expected, got)


# --------------------------------------------------------------------- #
# CLI glue
# --------------------------------------------------------------------- #
def test_cli_store_inspect_verify_compact(corpus, tmp_path, capsys):
    import io

    from repro.cli import main

    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    store.close(flush=False)
    data_dir = str(tmp_path / "store")

    out = io.StringIO()
    assert main(["--no-obs", "store", "inspect", data_dir], out=out) == 0
    text = out.getvalue()
    assert "ckpt-00000001" in text and "1 record(s)" in text

    out = io.StringIO()
    assert main(["--no-obs", "store", "verify", data_dir], out=out) == 0
    assert "verified clean" in out.getvalue()

    out = io.StringIO()
    assert main(["--no-obs", "store", "compact", data_dir], out=out) == 0
    assert "folded 1 WAL record(s)" in out.getvalue()

    # Corrupt one checkpoint array; verify must fail with exit code 1.
    victim = array_files(list_checkpoints(store.checkpoints_dir)[-1])[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01
    victim.write_bytes(bytes(blob))
    out = io.StringIO()
    assert main(["--no-obs", "store", "verify", data_dir], out=out) == 1
    assert "CORRUPT" in out.getvalue()


def test_cli_store_verify_audits_a_live_store(corpus, tmp_path):
    import io

    from repro.cli import main

    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)  # holds the writer lock
    store.add_texts([later[0]])
    data_dir = str(tmp_path / "store")
    out = io.StringIO()
    assert main(["--no-obs", "store", "verify", data_dir], out=out) == 0
    assert "ok: 1 checkpoint(s) and the WAL verified clean" in out.getvalue()

    victim = array_files(list_checkpoints(store.checkpoints_dir)[-1])[0]
    blob = bytearray(victim.read_bytes())
    blob[-1] ^= 0x01
    victim.write_bytes(bytes(blob))
    out = io.StringIO()
    assert main(["--no-obs", "store", "verify", data_dir], out=out) == 1
    assert f"CORRUPT  ckpt-00000001/{victim.name}" in out.getvalue()
    store.close(flush=False)


def test_cli_store_rejects_non_store(tmp_path):
    import io

    from repro.cli import main

    assert main(
        ["--no-obs", "store", "inspect", str(tmp_path)], out=io.StringIO()
    ) == 1


def test_cli_stats_data_dir_publishes_store_gauges(corpus, tmp_path):
    import io

    from repro.cli import main

    _, later, _ = corpus
    store = seeded_store(corpus, tmp_path)
    store.add_texts([later[0]])
    store.close(flush=False)

    out = io.StringIO()
    assert main(
        ["stats", "--data-dir", str(tmp_path / "store")], out=out
    ) == 0
    text = out.getvalue()
    assert "store.wal_records" in text
    assert "store.checkpoint_age_seconds" in text
    assert "store.last_recovery_replayed" in text
