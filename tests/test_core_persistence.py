"""Persistence of the LSI database: a model written into a store by its
first seal (what ``repro index`` does) and read back through the
store's one door, :func:`~repro.store.open_checkpoint`."""

import json

import numpy as np
import pytest

from repro.errors import StoreCorruptError, StoreError
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.updating.manager import LSIIndexManager

FIRST = "ckpt-00000001"


def _write(tdm, model, path):
    manager = LSIIndexManager.restore(
        tdm=tdm, k=model.k, model=model, base_model=model
    )
    DurableIndexStore.initialize(path, manager).close()
    return path


@pytest.fixture
def db(med_tdm, med_model, tmp_path):
    return _write(med_tdm, med_model, tmp_path / "db")


def _checkpoint_dir(db):
    return db / "checkpoints" / FIRST


def test_round_trip_bit_exact(med_model, db):
    loaded = open_checkpoint(db).model()
    assert np.array_equal(loaded.U, med_model.U)
    assert np.array_equal(loaded.s, med_model.s)
    assert np.array_equal(loaded.V, med_model.V)
    assert np.array_equal(loaded.global_weights, med_model.global_weights)
    assert loaded.vocabulary.to_list() == med_model.vocabulary.to_list()
    assert loaded.doc_ids == med_model.doc_ids
    assert loaded.scheme == med_model.scheme
    assert loaded.provenance == med_model.provenance


def test_loaded_model_is_usable(med_model, db):
    from repro.core.query import project_query
    from repro.core.similarity import rank_documents

    loaded = open_checkpoint(db).model()
    q = "age blood abnormalities"
    assert rank_documents(loaded, project_query(loaded, q)) == rank_documents(
        med_model, project_query(med_model, q)
    )


def test_loaded_vocabulary_is_frozen(db):
    assert open_checkpoint(db).model().vocabulary.frozen


def _rewrite_manifest(db, edit):
    path = _checkpoint_dir(db) / "manifest.json"
    path.write_text(edit(path.read_text()))


def test_reject_wrong_version(db):
    def bump(text):
        manifest = json.loads(text)
        manifest["format"] = 999
        return json.dumps(manifest)

    _rewrite_manifest(db, bump)
    with pytest.raises(StoreError, match="unsupported checkpoint format"):
        open_checkpoint(db, FIRST)
    with pytest.raises(StoreError, match="no valid checkpoint"):
        open_checkpoint(db)


def test_reject_corrupt_metadata(db):
    _rewrite_manifest(db, lambda _text: "not json")
    with pytest.raises(StoreCorruptError, match="unreadable manifest"):
        open_checkpoint(db, FIRST)
    with pytest.raises(StoreError, match="no valid checkpoint"):
        open_checkpoint(db)


def test_save_is_atomic_no_temp_leftovers(db):
    checkpoints = db / "checkpoints"
    assert sorted(p.name for p in checkpoints.iterdir()) == [FIRST]
    # A second seal beside the first: a reader sees one complete
    # checkpoint or the other, never a partial one; still no debris.
    store = DurableIndexStore.open(db)
    store.seal()
    store.close()
    assert sorted(p.name for p in checkpoints.iterdir()) == [
        FIRST, "ckpt-00000002",
    ]


def test_save_failure_cleans_temp_file(med_tdm, med_model, tmp_path,
                                       monkeypatch):
    import repro.store.checkpoint as checkpoint

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.np, "save", boom)
    db = tmp_path / "db"
    with pytest.raises(OSError):
        _write(med_tdm, med_model, db)
    assert list(tmp_path.iterdir()) == []  # no temp litter, no partial store
    monkeypatch.undo()
    # Nothing is left that would refuse a retry.
    _write(med_tdm, med_model, db)
    assert open_checkpoint(db).model().n_documents == med_model.n_documents


def test_save_failure_keeps_an_existing_directory(med_tdm, med_model,
                                                  tmp_path, monkeypatch):
    import repro.store.checkpoint as checkpoint

    def boom(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.np, "save", boom)
    (tmp_path / "notes.txt").write_text("kept")
    with pytest.raises(OSError):
        _write(med_tdm, med_model, tmp_path)
    # Only what the failed call created is removed.
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


def test_load_truncated_file_raises_store_error(db):
    path = _checkpoint_dir(db) / "base_V.npy"
    blob = path.read_bytes()
    for cut in (len(blob) // 2, 10):
        path.write_bytes(blob[:cut])
        # The verifying door refuses it; opened by name (unverified),
        # the decode fails with the store's typed error.
        with pytest.raises(StoreError, match="no valid checkpoint"):
            open_checkpoint(db)
        with pytest.raises(StoreCorruptError, match="cannot load array"):
            open_checkpoint(db, FIRST)


def test_load_garbage_bytes_raises_store_error(db):
    path = _checkpoint_dir(db) / "base_U.npy"
    path.write_bytes(b"\x00\x01garbage not an npy file\xff" * 10)
    with pytest.raises(StoreError, match="no valid checkpoint"):
        open_checkpoint(db)
    with pytest.raises(StoreCorruptError, match="cannot load array"):
        open_checkpoint(db, FIRST)


def test_load_missing_store_raises_store_error(tmp_path):
    with pytest.raises(StoreError, match="no valid checkpoint"):
        open_checkpoint(tmp_path / "absent")
