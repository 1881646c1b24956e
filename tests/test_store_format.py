"""``FORMAT.md`` is the store's whole contract: a reader built from it
alone (``tests/format_reader.py``) reads the same factors and log
records as :func:`~repro.store.open_checkpoint` and
:func:`~repro.store.scan_wal`, bit for bit."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.store.wal import scan_wal
from tests import format_reader
from tests.test_cli_toolbox import LINES, MORE_LINES
from tests.test_store_mmap import pending_fast_update_store


def _cli(*argv):
    assert cli_main(["--no-obs", *map(str, argv)]) == 0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape) == (b.dtype, b.shape) and (
        a.tobytes() == b.tobytes()
    )


def _store(tmp_path, corpus: str, added: str):
    source = tmp_path / "corpus.txt"
    source.write_text(corpus)
    new = tmp_path / "new.txt"
    new.write_text(added)
    db = tmp_path / "db"
    _cli("index", source, db, "-k", "3")
    _cli("add", db, new)
    return db


def _serving_twins(ours: dict) -> list[str]:
    return sorted(name for name in ours["arrays"] if name.startswith("model_"))


def test_consolidated_store_reads_the_same(tmp_path):
    """``repro index`` + ``repro add`` on a small corpus: the add
    consolidates, so the checkpoint's serving model is its base."""
    db = _store(tmp_path, LINES, "depressed rats\nfast patients\n")
    ours = _assert_reads_the_same(db)
    assert ours["meta"]["provenance"] == "svd-update"
    assert _serving_twins(ours) == []
    assert b'"indices"' in (db / "wal.log").read_bytes()  # sparse codec


def test_reopened_and_resealed_store_reads_the_same(tmp_path):
    """A store ``DurableIndexStore.open`` recovered decodes its serving
    model afresh; sealed again with nothing pending, it still writes
    each factor once."""
    db = _store(tmp_path, LINES, "depressed rats\nfast patients\n")
    store = DurableIndexStore.open(db)
    assert store.manager.pending == 0
    store.seal(reason="test")
    store.close(flush=False)
    ours = _assert_reads_the_same(db)
    assert ours["meta"]["reason"] == "test"
    assert _serving_twins(ours) == []


def test_pending_fold_in_rows_read_the_same(tmp_path):
    """One document added to twelve is within the fold-in budget and
    stays pending: the checkpoint carries ``model_V`` and the block,
    and fold-in's ``U`` and ``Σ`` once, as ``base_*``."""
    db = _store(tmp_path, MORE_LINES, "depressed patients feel pressure\n")
    ours = _assert_reads_the_same(db)
    assert ours["meta"]["provenance"] == "fold-in"
    assert ours["pending_ids"] == ["D13"]
    assert _serving_twins(ours) == ["model_V"]
    assert ours["arrays"]["model_V"].shape == (13, 3)


def test_pending_fast_update_rows_read_the_same(tmp_path):
    """Fast-update batches pending: the serving ``U`` and ``Σ`` were
    rotated, so both twins are on disk, and a reader pairs them with
    ``model_V``."""
    store, _ = pending_fast_update_store(tmp_path / "db")
    store.close(flush=False)
    ours = _assert_reads_the_same(tmp_path / "db")
    assert _serving_twins(ours) == ["model_U", "model_V", "model_s"]
    assert ours["pending_ids"] == [f"D{i}" for i in range(60, 72)]


def test_log_suffix_past_the_checkpoint_reads_the_same(tmp_path):
    """A dense count block logged and not yet sealed: the reader finds
    it past the checkpoint's ``wal_lsn``, as recovery replays it."""
    db = _store(tmp_path, MORE_LINES, "depressed patients feel pressure\n")
    store = DurableIndexStore.open(db)
    m = store.manager.model.n_terms
    store.add_counts(np.ones((m, 1)), ["DENSE"])
    store.close(flush=False)
    ours = _assert_reads_the_same(db)
    _, records = format_reader.read_wal(db / "wal.log")
    suffix = [r for r in records if r["lsn"] > ours["meta"]["wal_lsn"]]
    assert [r["doc_ids"] for r in suffix] == [["DENSE"]]
    assert _same_bits(suffix[0]["counts"], np.ones((m, 1)))
    assert b'"data"' in (db / "wal.log").read_bytes()  # dense codec


def _assert_reads_the_same(db) -> dict:
    ours = format_reader.read_checkpoint(db)
    opened = open_checkpoint(db)
    assert ours["name"] == opened.name
    model = opened.model()
    for name in ("U", "s", "V", "global_weights"):
        assert _same_bits(ours["model"][name], getattr(model, name)), name
    assert ours["model"]["vocabulary"] == model.vocabulary.to_list()
    assert ours["model"]["doc_ids"] == list(model.doc_ids)
    assert ours["model"]["scheme"] == (model.scheme.local, model.scheme.global_)
    assert ours["model"]["provenance"] == model.provenance
    ann = opened.ann()
    for name, array in ann.to_arrays().items():
        assert _same_bits(ours["arrays"][name], array), name

    manager = opened.manager()
    base = manager._base_model
    for name in ("U", "s", "V", "global_weights"):
        assert _same_bits(ours["base"][name], getattr(base, name)), name
    assert ours["base"]["doc_ids"] == list(base.doc_ids)
    assert ours["base"]["provenance"] == base.provenance
    assert ours["tdm_doc_ids"] == list(manager.tdm.doc_ids)
    assert ours["pending_ids"] == list(manager._pending_ids)
    if manager.pending:
        pending = np.hstack(manager._pending_counts)
        assert _same_bits(ours["arrays"]["pending"], pending)

    base, records = format_reader.read_wal(db / "wal.log")
    scan = scan_wal(db / "wal.log")
    assert base == scan.base_lsn and records
    assert len(records) == len(scan.records)
    for record, want in zip(records, scan.records):
        record = dict(record)
        assert (record.pop("lsn"), record.pop("op")) == (want.lsn, want.op)
        assert record.keys() == want.payload.keys()
        for key, value in want.payload.items():
            if isinstance(value, np.ndarray):
                assert _same_bits(record[key], value), key
            else:
                assert record[key] == value, key
    return ours


@pytest.mark.parametrize("cut", [1, 9])
def test_torn_tail_is_where_both_readers_stop(tmp_path, cut):
    db = _store(tmp_path, LINES, "depressed rats\n")
    wal = db / "wal.log"
    wal.write_bytes(wal.read_bytes()[:-cut])
    _, records = format_reader.read_wal(wal)
    assert records == [] and scan_wal(wal).records == []
