"""Tests for cold-start recovery: capture/restore + WAL replay parity."""

import numpy as np
import pytest

from repro.corpus import SyntheticSpec, topic_collection
from repro.errors import StoreCorruptError, StoreError
from repro.server.state import EpochSnapshot
from repro.store import (
    DurableIndexStore,
    capture_manager,
    checkpoint,
    open_checkpoint,
    recover_manager,
    restore_manager,
    verify_store,
)
from repro.store.checkpoint import MANIFEST_NAME, load_manifest, write_checkpoint
from repro.store.wal import WriteAheadLog
from repro.text import ParsingRules, build_tdm
from repro.updating import LSIIndexManager
from repro.updating.manager import EVENT_WINDOW
from tests.test_store_checkpoint_wal import array_files


@pytest.fixture(scope="module")
def corpus():
    col = topic_collection(
        SyntheticSpec(n_topics=3, docs_per_topic=12, doc_length=25,
                      concepts_per_topic=8, queries_per_topic=1),
        seed=7,
    )
    return col.documents[:24], col.documents[24:]


def fresh_manager(corpus, **kwargs):
    train, _ = corpus
    tdm = build_tdm(train, ParsingRules())
    kwargs.setdefault("distortion_budget", 0.15)
    return LSIIndexManager(tdm, k=6, scheme="log_entropy", **kwargs)


def assert_managers_identical(a, b):
    assert np.array_equal(a.model.U, b.model.U)
    assert np.array_equal(a.model.s, b.model.s)
    assert np.array_equal(a.model.V, b.model.V)
    assert np.array_equal(a.model.global_weights, b.model.global_weights)
    assert a.model.doc_ids == b.model.doc_ids
    assert a.model.provenance == b.model.provenance
    assert a.pending == b.pending
    assert a.n_documents == b.n_documents
    assert np.array_equal(a.tdm.matrix.data, b.tdm.matrix.data)
    assert [e.action for e in a.events] == [e.action for e in b.events]


def test_capture_restore_bit_identical(corpus):
    mgr = fresh_manager(corpus)
    later = corpus[1]
    for text in later[:3]:
        mgr.add_texts([text])  # leave pending + consolidation history
    restored = restore_manager(*capture_manager(mgr))
    assert_managers_identical(mgr, restored)
    # The restored manager keeps evolving identically.
    e1 = mgr.add_texts([later[3]], doc_ids=["NEXT"])
    e2 = restored.add_texts([later[3]], doc_ids=["NEXT"])
    assert e1.action == e2.action
    assert_managers_identical(mgr, restored)


def test_event_history_is_a_fixed_window(corpus):
    # Every add appends an event; only the newest EVENT_WINDOW live in
    # memory and in the checkpoint manifest, so neither grows with the
    # ingest count.
    _, later = corpus
    mgr = fresh_manager(corpus)
    for i, text in enumerate((later * 3)[: EVENT_WINDOW + 3]):
        mgr.add_texts([text], doc_ids=[f"E{i}"])
    assert len(mgr.events) == EVENT_WINDOW
    arrays, meta = capture_manager(mgr)
    assert len(meta["events"]) == EVENT_WINDOW
    restored = restore_manager(arrays, meta)
    assert list(restored.events) == list(mgr.events)
    # The window keeps sliding after the round trip.
    for manager in (mgr, restored):
        manager.add_texts([later[0]], doc_ids=["LAST"])
    assert len(restored.events) == EVENT_WINDOW
    assert list(restored.events) == list(mgr.events)


def test_retired_checkpoint_keys_are_ignored(corpus):
    """A checkpoint an older build wrote carries ``drift_cap`` and
    ``exact_updates``, now constants: it restores all the same."""
    mgr = fresh_manager(corpus)
    arrays, meta = capture_manager(mgr)
    meta.update(drift_cap=2.0, exact_updates=True)
    assert_managers_identical(mgr, restore_manager(arrays, meta))


@pytest.mark.parametrize("op", ["consolidate", "add_terms"])
def test_a_record_this_build_does_not_apply_fails_the_open(corpus, tmp_path, op):
    """A WAL suffix holding a record an older build logged (a manual
    ``consolidate``, an Eq. 11 ``add_terms``) is corruption, named."""
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    store.add_texts([corpus[1][0]])
    store.close(flush=False)
    wal = WriteAheadLog(tmp_path / "s" / "wal.log")
    wal.append(op, {})
    wal.close()
    with pytest.raises(StoreCorruptError, match=f"record 2 has unknown op '{op}'"):
        DurableIndexStore.open(tmp_path / "s")


@pytest.mark.parametrize("missing", ["counts", "doc_ids"])
def test_a_record_without_its_payload_fails_the_open(corpus, tmp_path, missing):
    """A CRC-valid ``add_counts`` record that lacks a payload key is
    corruption named by LSN and key, not a bare ``KeyError``."""
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    counts, doc_ids = store.manager.count_texts([corpus[1][0]], ["X"])
    store.close(flush=False)
    payload = {"counts": counts, "doc_ids": doc_ids}
    del payload[missing]
    wal = WriteAheadLog(tmp_path / "s" / "wal.log")
    wal.append("add_counts", payload)
    wal.close()
    with pytest.raises(
        StoreCorruptError, match=f"record 1 \\(add_counts\\) has no '{missing}'"
    ):
        DurableIndexStore.open(tmp_path / "s")


def test_recovery_replay_matches_live_manager(corpus, tmp_path):
    train, later = corpus
    mgr = fresh_manager(corpus)
    store = DurableIndexStore.initialize(tmp_path / "store", mgr)
    for i, text in enumerate(later[:6]):
        store.add_texts([text], doc_ids=[f"W{i}"])
    store.close(flush=False)  # crash-like: no final checkpoint

    recovered, report = recover_manager(*DurableIndexStore.paths(tmp_path / "store"))
    assert report.replayed_records > 0
    assert_managers_identical(mgr, recovered)


def test_recovery_from_mid_stream_checkpoint(corpus, tmp_path):
    _, later = corpus
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    for text in later[:3]:
        store.add_texts([text])
    store.checkpoint(reason="mid")
    for text in later[3:6]:
        store.add_texts([text])
    live = store.manager
    store.close(flush=False)

    recovered, report = recover_manager(*DurableIndexStore.paths(tmp_path / "s"))
    # Only the records after the mid-stream checkpoint are replayed.
    assert 0 < report.replayed_records < 6
    assert_managers_identical(live, recovered)


def test_torn_tail_drops_only_last_record(corpus, tmp_path):
    _, later = corpus
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    sizes = []
    for i, text in enumerate(later[:4]):
        store.add_texts([text], doc_ids=[f"W{i}"])
        sizes.append(store.wal.size_bytes)
    store.close(flush=False)

    # Crash mid-append: cut into the final record's bytes.
    checkpoints_dir, wal_path = DurableIndexStore.paths(tmp_path / "s")
    with open(wal_path, "r+b") as fh:
        fh.truncate(sizes[-1] - 5)

    recovered, report = recover_manager(checkpoints_dir, wal_path)
    assert report.torn_tail
    assert recovered.n_documents == 24 + 3  # W3 lost, W0..W2 survive
    assert "W2" in recovered.model.doc_ids
    assert "W3" not in recovered.model.doc_ids


def test_manifest_doc_count_tamper_detected(corpus, tmp_path):
    import json

    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    store.close(flush=False)
    checkpoints_dir, wal_path = DurableIndexStore.paths(tmp_path / "s")
    [ckpt] = list(checkpoints_dir.iterdir())
    manifest_path = ckpt / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["meta"]["n_documents"] = 999
    manifest_path.write_text(json.dumps(manifest))
    # The CRC audit does not cover meta consistency; the doc-count
    # cross-check in recovery is what refuses to serve the wrong index.
    with pytest.raises(StoreCorruptError, match="999"):
        recover_manager(checkpoints_dir, wal_path)


def test_corrupt_array_falls_back_to_older_checkpoint(corpus, tmp_path):
    _, later = corpus
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    store.add_texts([later[0]], doc_ids=["W0"])
    store.checkpoint(reason="second")
    store.close(flush=False)
    checkpoints_dir, wal_path = DurableIndexStore.paths(tmp_path / "s")

    from repro.store import list_checkpoints

    newest = list_checkpoints(checkpoints_dir)[-1]
    victim = array_files(newest)[0]
    blob = bytearray(victim.read_bytes())
    blob[-3] ^= 0x40
    victim.write_bytes(bytes(blob))

    recovered, report = recover_manager(checkpoints_dir, wal_path)
    # Fell back to checkpoint 1 and replayed the WAL over it.
    assert report.checkpoint_id == 1
    assert report.problems
    assert report.replayed_records == 1
    assert "W0" in recovered.model.doc_ids


def test_no_checkpoint_raises(tmp_path):
    with pytest.raises(StoreError, match="no valid checkpoint"):
        recover_manager(tmp_path / "checkpoints", tmp_path / "wal.log")


def test_compact_is_bit_identical_and_resets_replay(corpus, tmp_path):
    _, later = corpus
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    for text in later[:5]:
        store.add_texts([text])
    live = store.manager
    before = store.wal.n_records
    assert before == 5
    path = store.compact()
    assert store.wal.n_records == 0
    assert verify_store(tmp_path / "s") == (2, [])
    assert store.last_seal.path == path and store.last_seal.epoch == 5
    store.close(flush=False)

    recovered, report = recover_manager(*DurableIndexStore.paths(tmp_path / "s"))
    assert report.replayed_records == 0
    assert_managers_identical(live, recovered)


# --------------------------------------------------------------------- #
# V is written once unless documents are pending
# --------------------------------------------------------------------- #
def _v_files(info_path):
    manifest = load_manifest(info_path)
    return manifest["format"], sorted(
        name for name in manifest["arrays"] if name.endswith("_V")
    )


def test_initialize_writes_one_v_and_reopens_sharing_it(corpus, tmp_path):
    store = DurableIndexStore.initialize(tmp_path / "s", fresh_manager(corpus))
    assert _v_files(store.last_seal.path) == (3, ["base_V"])
    store.close()
    reopened = DurableIndexStore.open(tmp_path / "s")
    try:
        manager = reopened.manager
        assert manager.model.V is manager._base_model.V
        assert manager.model.U is manager._base_model.U
    finally:
        reopened.close()


def test_pending_rows_write_both_vs_and_replay_bit_exactly(corpus, tmp_path):
    _, later = corpus
    manager = fresh_manager(corpus, distortion_budget=1e9)  # never consolidates
    store = DurableIndexStore.initialize(tmp_path / "s", manager)
    store.add_texts(later[:3], ["P0", "P1", "P2"])
    assert store.manager.pending == 3
    live = store.manager
    sealed = store.seal(reason="test")
    assert _v_files(sealed.path) == (3, ["base_V", "model_V"])
    store.close(flush=False)
    recovered, report = recover_manager(*DurableIndexStore.paths(tmp_path / "s"))
    assert report.replayed_records == 0
    assert recovered.model.V is not recovered._base_model.V
    assert_managers_identical(live, recovered)
    assert np.array_equal(recovered._base_model.V, live._base_model.V)


def test_a_format_2_checkpoint_with_two_vs_opens_and_ranks_the_same(
    corpus, tmp_path, monkeypatch
):
    store = DurableIndexStore.initialize(tmp_path / "new", fresh_manager(corpus))
    store.close()
    new = open_checkpoint(tmp_path / "new")
    arrays = dict(new.arrays)
    arrays["model_V"] = np.array(arrays["base_V"])  # what format 2 wrote
    monkeypatch.setattr(checkpoint, "CHECKPOINT_FORMAT", 2)
    write_checkpoint(
        DurableIndexStore.paths(tmp_path / "old")[0], arrays, new.info.meta
    )
    old = open_checkpoint(tmp_path / "old")
    assert _v_files(old.info.path) == (2, ["base_V", "model_V"])

    legacy = old.model()
    assert np.shares_memory(legacy.V, old.arrays["model_V"])
    want, got = EpochSnapshot(0, new.model()), EpochSnapshot(0, legacy)
    queries = [text.split()[:6] for text in corpus[1][:5]]
    Qs = want.scale(np.stack([want.project(q) for q in queries]))
    for top, threshold in ((10, None), (None, 0.2), (None, None)):
        assert got.search(Qs, top=top, threshold=threshold) == want.search(
            Qs, top=top, threshold=threshold
        )
    reopened = DurableIndexStore.open(tmp_path / "old")
    try:
        assert_managers_identical(reopened.manager, new.manager())
    finally:
        reopened.close(flush=False)
