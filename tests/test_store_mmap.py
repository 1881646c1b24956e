"""Tests for the memory-mapped model path (``repro.store.mmap_io``).

The cluster leans on two mmap properties that were previously implicit:
the mapped factors are *read-only* (a worker cannot corrupt the
checkpoint it serves), and concurrent openers of the same checkpoint
share the underlying file mapping (N workers cost one copy of the page
cache, not N).  Both are pinned here, alongside scoring parity between
the mapped and fully-loaded forms of the same checkpoint.
"""

import json
import shutil

import numpy as np
import pytest

from repro.cluster.plan import ShardPlan
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.worker import open_shard
from repro.core.query import project_query
from repro.core.similarity import cosine_similarities
from repro.errors import StoreCorruptError
from repro.server.state import ServingState, manager_from_texts
from repro.serving.ann import CoarseQuantizer
from repro.serving.snapshot import EpochSnapshot
from repro.store.checkpoint import MANIFEST_NAME, write_checkpoint
from repro.store.durable import DurableIndexStore, STORE_LAYOUT
from repro.store.mmap_io import open_latest_ann, open_latest_model
from repro.store.recovery import open_checkpoint
from repro.tenancy.registry import IndexRegistry


@pytest.fixture(scope="module")
def mmap_store(tmp_path_factory):
    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=12)) for _ in range(23)]
    ids = [f"D{i}" for i in range(len(texts))]
    data_dir = tmp_path_factory.mktemp("mmap_store") / "store"
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=8)
    )
    store.close(flush=False)
    return data_dir, texts


def test_mapped_factors_are_read_only(mmap_store):
    data_dir, _ = mmap_store
    model = open_latest_model(data_dir, mmap=True)
    for name in ("U", "s", "V", "global_weights"):
        arr = getattr(model, name)
        assert arr.flags.writeable is False, name
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 99.0


def test_concurrent_openers_share_the_backing_file(mmap_store):
    data_dir, _ = mmap_store
    a = open_latest_model(data_dir, mmap=True)
    b = open_latest_model(data_dir, mmap=True)
    # ``LSIModel.__post_init__`` runs the arrays through ``np.asarray``,
    # which strips the ``np.memmap`` subclass but keeps the mapping as
    # ``.base`` — so check the base, not the array's own type.
    for name in ("U", "V"):
        base_a = getattr(a, name).base
        base_b = getattr(b, name).base
        assert isinstance(base_a, np.memmap), name
        assert isinstance(base_b, np.memmap), name
        # Two openers, one file: the kernel shares the page cache.
        assert base_a.filename == base_b.filename
        assert base_a.filename is not None
    assert np.array_equal(a.V, b.V)


def test_mapped_model_scores_identically_to_loaded(mmap_store):
    data_dir, texts = mmap_store
    mapped = open_latest_model(data_dir, mmap=True)
    loaded = open_latest_model(data_dir, mmap=False)
    assert loaded.V.flags.writeable  # the non-mapped form stays mutable
    for query in texts[:3]:
        qm = project_query(mapped, query)
        ql = project_query(loaded, query)
        assert np.array_equal(qm, ql)
        assert np.array_equal(
            cosine_similarities(mapped, qm), cosine_similarities(loaded, ql)
        )


# --------------------------------------------------------------------- #
# one door: every reader decodes the factors the writer serves
# --------------------------------------------------------------------- #
def pending_fast_update_store(data_dir):
    """A store sealed with fast-update batches *pending*: the serving
    ``U``/``Σ`` have been rotated away from the consolidated base, which
    is exactly the state a reader must not decode as ``base_U``/``base_s``
    under ``model_V``.  Returns the open store and 20 query texts."""
    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=14)) for _ in range(72)]
    manager = manager_from_texts(
        texts[:60], [f"D{i}" for i in range(60)], k=8,
        ingest_method="fast-update", fast_update_rank=4,
    )
    manager.distortion_budget = 1e9
    store = DurableIndexStore.initialize(data_dir, manager)
    for lo in (60, 66):
        event = store.add_texts(
            texts[lo:lo + 6], [f"D{i}" for i in range(lo, lo + 6)]
        )
        assert event.action == "fast-update"  # never consolidated
    assert store.manager.pending == 12
    assert store.manager.model.U is not store.manager._base_model.U
    sealed = store.seal(reason="test")
    # The rotated serving factors differ from the base's: both on disk.
    written = {file.stem for file in sealed.path.glob("model_*.npy")}
    assert written == {"model_U", "model_s", "model_V"}
    return store, texts[:20]


def assert_same_factors(model, reference):
    for name in ("U", "s", "V", "global_weights"):
        assert np.array_equal(getattr(model, name), getattr(reference, name)), name
    assert model.doc_ids == reference.doc_ids


def assert_same_rankings(snapshot, reference, queries, **search):
    for query in queries:
        got, _ = snapshot.search(
            snapshot.scale(snapshot.project(query)), top=10, **search
        )
        want, _ = reference.search(
            reference.scale(reference.project(query)), top=10, **search
        )
        assert got == want, query


def test_mapped_reader_serves_the_writers_factors(tmp_path):
    store, queries = pending_fast_update_store(tmp_path / "store")
    try:
        live = ServingState.for_store(store).current()
        mapped = open_latest_model(store.data_dir, mmap=True)
        # Eq. 6 projects with U_k Σ_k⁻¹ and scores against V_k Σ_k: all
        # three must come from one epoch, bit for bit.
        assert_same_factors(mapped, store.manager.model)
        assert_same_rankings(EpochSnapshot(0, mapped), live, queries)
        # The quantizer's cells are fitted to the coordinates queries are
        # compared with (the serving V_k Σ_k), not base Σ under rotated V.
        model = store.manager.model
        want = CoarseQuantizer.train(model.V, model.s, seed=store.manager.seed)
        sealed = open_latest_ann(store.data_dir)
        assert np.array_equal(sealed.centroids, want.centroids)
        assert np.array_equal(sealed.cell_docs, want.cell_docs)
        assert_same_rankings(
            EpochSnapshot(0, mapped, ann=sealed), live, queries, probes=2
        )
    finally:
        store.close(flush=False)


def test_fold_in_checkpoint_shares_the_base_factors(tmp_path, mmap_store):
    """Sealed with fold-in rows pending, a reopened store writes the
    serving ``V`` beside the base's but ``U`` and ``Σ`` once: fold-in
    leaves them the base's, bit for bit."""
    _, texts = mmap_store
    manager = manager_from_texts(texts, [f"D{i}" for i in range(len(texts))], k=8)
    manager.distortion_budget = 1e9  # never consolidates
    DurableIndexStore.initialize(tmp_path / "store", manager).close(flush=False)
    store = DurableIndexStore.open(tmp_path / "store")
    try:
        event = store.add_texts(texts[:2], ["F0", "F1"])
        assert event.action == "fold-in" and store.manager.pending == 2
        sealed = store.seal(reason="test")
    finally:
        store.close(flush=False)
    opened = open_checkpoint(tmp_path / "store", sealed.name, mmap=False)
    assert "model_U" not in opened.arrays and "model_s" not in opened.arrays
    assert "model_V" in opened.arrays
    manager = opened.manager()
    assert manager.model.U is manager._base_model.U
    assert manager.pending == 2 and manager.model.doc_ids[-2:] == ["F0", "F1"]
    assert np.array_equal(opened.model().U, opened.arrays["base_U"])
    assert np.array_equal(opened.model().s, opened.arrays["base_s"])


# --------------------------------------------------------------------- #
# one door: each open parses one manifest and CRCs each file at most once
# --------------------------------------------------------------------- #
def _serve_open(data_dir):
    store = DurableIndexStore.open(data_dir)
    try:
        return ServingState.for_store(store).current().model
    finally:
        store.close(flush=False)


def _tenant_attach(data_dir):
    registry = IndexRegistry()
    registry.register("t", loader=lambda: ServingState.open(data_dir))
    with registry.pin("t") as (_tid, state):
        return state.current().model


def _worker_by_plan(data_dir):
    name = sorted((data_dir / STORE_LAYOUT["checkpoints"]).iterdir())[-1].name
    sealed = open_checkpoint(data_dir, name)
    plan = ShardPlan.compute(
        sealed.model().n_documents, 2, epoch=sealed.epoch, checkpoint=name
    )
    return lambda: open_shard(data_dir, plan, 1).model


@pytest.mark.parametrize(
    "opener, crc_passes",
    [
        (lambda d: lambda: _serve_open(d), 1),
        (lambda d: lambda: _tenant_attach(d), 1),
        (lambda d: lambda: open_latest_model(d), 1),
        (lambda d: lambda: open_latest_ann(d), 1),
        (lambda d: lambda: ClusterService(d, ClusterConfig(2)).window.served.model, 1),
        (_worker_by_plan, 0),
    ],
    ids=["serve", "tenant-attach", "latest-model", "latest-ann",
         "cluster-front-end", "worker-by-plan"],
)
def test_one_open_is_one_parse_and_at_most_one_crc_pass(
    tmp_path, open_counts, opener, crc_passes
):
    store, _ = pending_fast_update_store(tmp_path / "store")
    store.close(flush=False)
    checkpoints = tmp_path / "store" / STORE_LAYOUT["checkpoints"]
    newest = sorted(checkpoints.iterdir())[-1]
    assert newest.name == "ckpt-00000002"  # an older one sits beside it
    open_once = opener(tmp_path / "store")
    open_counts.reset()
    open_once()
    assert open_counts.parses == [newest]
    assert sorted(open_counts.crcs) == sorted(newest.glob("*.npy")) * crc_passes


def test_corrupt_newest_falls_back_and_is_reported_once(tmp_path, open_counts):
    store, _ = pending_fast_update_store(tmp_path / "store")
    store.close(flush=False)
    older, newest = sorted(
        (tmp_path / "store" / STORE_LAYOUT["checkpoints"]).iterdir()
    )
    victim = newest / "model_U.npy"
    blob = bytearray(victim.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    victim.write_bytes(bytes(blob))

    opened = open_checkpoint(tmp_path / "store")
    assert opened.name == older.name
    assert len(opened.problems) == 1 and "model_U.npy: crc32" in opened.problems[0]
    assert opened.model().n_documents == 60
    # Both checkpoints were verified once each; neither was parsed twice.
    assert sorted(open_counts.parses) == [older, newest]
    assert len(open_counts.crcs) == len(set(open_counts.crcs))


def test_checkpoint_missing_an_array_or_key_is_a_typed_error(tmp_path):
    """A checkpoint can verify and still be undecodable (another tool
    wrote it): the door names the directory and what is missing."""
    rng = np.random.default_rng(3)
    arrays = {
        "base_U": rng.standard_normal((6, 2)),
        "base_s": np.array([2.0, 1.0]),
        "model_V": rng.standard_normal((9, 2)),
        "base_gw": np.ones(6),
    }
    meta = {
        "model_scheme": {"local": "tf", "global": "none"},
        "vocabulary": [f"w{i}" for i in range(6)],
        "doc_ids": [f"D{j}" for j in range(9)],
        "provenance": "svd",
        "epoch": 0,
        "n_documents": 9,
    }
    info = write_checkpoint(tmp_path / STORE_LAYOUT["checkpoints"], arrays, meta)
    opened = open_checkpoint(tmp_path)  # every CRC passes
    with pytest.raises(StoreCorruptError, match="base_V") as excinfo:
        opened.model()
    assert str(info.path) in str(excinfo.value)

    arrays["base_V"] = arrays["model_V"]
    write_checkpoint(tmp_path / STORE_LAYOUT["checkpoints"], arrays, meta)
    with pytest.raises(StoreCorruptError, match="'pending'"):
        open_checkpoint(tmp_path).manager()


@pytest.mark.parametrize(
    "key, read",
    [
        ("epoch", lambda d: open_checkpoint(d).epoch),
        ("wal_lsn", DurableIndexStore.open),
        ("ingest_method", DurableIndexStore.open),
        ("fast_update_rank", lambda d: open_checkpoint(d).manager()),
    ],
)
def test_a_required_manifest_key_missing_is_a_typed_error(
    mmap_store, tmp_path, key, read
):
    """Every manifest key is required: none is defaulted on read."""
    data_dir = tmp_path / "store"
    shutil.copytree(mmap_store[0], data_dir)
    [ckpt] = (data_dir / STORE_LAYOUT["checkpoints"]).iterdir()
    manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
    del manifest["meta"][key]
    (ckpt / MANIFEST_NAME).write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruptError, match=f"key '{key}'"):
        read(data_dir)
