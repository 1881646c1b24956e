"""The serving-tier coarse quantizer (``repro.serving.ann``) end to end.

Properties the ANN serving tier leans on, pinned at the layer that owns
each one:

* **Determinism** — training is a pure function of ``(coords, seed)``,
  so every checkpoint writer and every test harness reproduces the same
  quantizer bit-for-bit (hypothesis over seeds).
* **Candidate nesting** — more probes can only *add* candidates, which
  is why recall is monotone in ``probes`` and why the probe dial is
  safe to turn at request time.
* **Shard partition** — a worker probing its ``[lo, hi)`` slice sees
  exactly its rows of the single-node candidate set, and merging the
  per-shard rankings reproduces the per-shard exact scan when every
  cell is probed.
* **Fresh tail** — rows folded in after training are always candidates,
  so a quantizer can lag the index without losing documents.
* **Persistence** — the checkpoint round trip (format v2) reopens the
  same quantizer zero-copy; format-1 checkpoints load with no quantizer
  and every query path falls back to the exact scan.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.metrics import registry
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.server import QueryService, ServerConfig
from repro.server.state import ServingState, manager_from_texts
from repro.serving.ann import (
    ANN_ARRAY_NAMES,
    CoarseQuantizer,
    default_n_clusters,
)
from repro.serving.index import scaled_rows
from repro.serving.kernel import cosine_scores, row_norms
from repro.serving.scan import ranked_scan
from repro.serving.topk import ranked_order
from repro.store.checkpoint import MANIFEST_NAME, write_checkpoint
from repro.store.durable import (
    STORE_LAYOUT,
    DurableIndexStore,
    read_store_status,
)
from repro.store.mmap_io import open_latest_ann
from repro.store.recovery import open_checkpoint
from tests.test_serving_scan import assert_ranking_matches

K = 8
N_DOCS = 300


def _coords(seed: int = 3, n: int = N_DOCS, k: int = K) -> np.ndarray:
    """Hub-structured Σ-scaled coordinates (what quantizers train on)."""
    rng = np.random.default_rng(seed)
    hubs = rng.standard_normal((10, k))
    return (
        hubs[rng.integers(10, size=n)] + 0.2 * rng.standard_normal((n, k))
    )


COORDS = _coords()
NORMS = row_norms(COORDS)


@pytest.fixture(scope="module")
def quantizer() -> CoarseQuantizer:
    return CoarseQuantizer.train(COORDS, 12, seed=0)


# --------------------------------------------------------------------- #
# determinism and nesting (hypothesis)
# --------------------------------------------------------------------- #
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_training_deterministic_given_seed(seed):
    a = CoarseQuantizer.train(COORDS, 8, seed=seed)
    b = CoarseQuantizer.train(COORDS, 8, seed=seed)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.cell_indptr, b.cell_indptr)
    assert np.array_equal(a.cell_docs, b.cell_docs)


@settings(max_examples=25, deadline=None)
@given(qseed=st.integers(min_value=0, max_value=2**31 - 1))
def test_candidates_nest_as_probes_grow(quantizer, qseed):
    q = np.random.default_rng(qseed).standard_normal(K)
    c = quantizer.n_clusters
    previous: set[int] = set()
    for probes in (1, 2, c // 2, c):
        cells = quantizer.probe_cells(q, probes)
        cand = set(quantizer.candidates(cells).tolist())
        assert previous <= cand, (len(previous), len(cand))
        previous = cand
    # Every cell probed ⇒ every trained document is a candidate.
    assert previous == set(range(quantizer.n_documents))


def test_probe_cells_are_a_stable_prefix(quantizer):
    # The cell ranking is one stable argsort, so probes=p is literally
    # the first p entries of probes=c — the nesting test's mechanism.
    q = np.random.default_rng(5).standard_normal(K)
    all_cells = quantizer.probe_cells(q, quantizer.n_clusters)
    for probes in (1, 3, 7):
        assert np.array_equal(
            quantizer.probe_cells(q, probes), all_cells[:probes]
        )


def test_zero_norm_query_probes_every_cell(quantizer):
    cells = quantizer.probe_cells(np.zeros(K), 1)
    assert np.array_equal(cells, np.arange(quantizer.n_clusters))


# --------------------------------------------------------------------- #
# shard partition
# --------------------------------------------------------------------- #
def _shard_slices(shards: int):
    out = []
    for lo, hi in shard_bounds(N_DOCS, shards):
        coords = np.ascontiguousarray(COORDS[lo:hi])
        out.append((lo, hi, coords, row_norms(coords)))
    return out


def test_shard_candidates_partition_the_single_node_set(quantizer):
    q = np.random.default_rng(7).standard_normal(K)
    for probes in (1, 3, quantizer.n_clusters):
        cells = quantizer.probe_cells(q, probes)
        whole = quantizer.candidates(cells, n_total=N_DOCS).tolist()
        per_shard = [
            quantizer.candidates(
                cells, n_total=N_DOCS, lo=lo, hi=hi
            ).tolist()
            for lo, hi, _, _ in _shard_slices(3)
        ]
        assert [j for part in per_shard for j in part] == whole
        for (lo, hi, _, _), part in zip(_shard_slices(3), per_shard):
            assert all(lo <= j < hi for j in part)


def test_full_probe_shard_merge_equals_per_shard_exact_scan(quantizer):
    # With every cell probed each shard's candidate set is its whole
    # row range, and the merged ranking must equal the per-shard exact
    # ranking (``ranked_scan``) merged the same way — indices, scores
    # and tie order, bit for bit: both report the row-local kernel.
    q = np.random.default_rng(8).standard_normal(K)
    top = 15
    ann_parts, exact_parts = [], []
    for lo, hi, coords, norms in _shard_slices(3):
        pairs, stats = quantizer.select(
            coords, norms, q,
            probes=quantizer.n_clusters, top=top, lo=lo, n_total=N_DOCS,
        )
        assert stats["candidates"] == hi - lo
        ann_parts.append(pairs)
        exact_parts.append(
            ranked_scan(
                scaled_rows(COORDS[lo:hi], np.ones(K)),
                q[None, :], [top], [None], offset=lo,
            )[0]
        )
        # And both are the full fp64 matrix's ranking, to 1e-12.
        scores = cosine_scores(coords, q, norms=norms)[0]
        assert_ranking_matches(
            pairs,
            [(lo + int(j), float(scores[j])) for j in ranked_order(scores, top=top)],
        )
    assert merge_topk(ann_parts, top) == merge_topk(exact_parts, top)


def test_bounded_probe_shard_merge_covers_single_node_candidates(quantizer):
    # Below the full probe count the merged shard ranking ranks exactly
    # the single-node candidate set (scores may differ in the last ulp
    # across BLAS shapes, so compare the index sets).
    q = np.random.default_rng(9).standard_normal(K)
    probes = 3
    whole, _ = quantizer.select(
        COORDS, NORMS, q, probes=probes, top=None, n_total=N_DOCS
    )
    parts = [
        quantizer.select(
            coords, norms, q, probes=probes, top=None, lo=lo, n_total=N_DOCS
        )[0]
        for lo, hi, coords, norms in _shard_slices(3)
    ]
    merged = merge_topk(parts, N_DOCS)
    assert {j for j, _ in merged} == {j for j, _ in whole}


# --------------------------------------------------------------------- #
# fresh tail
# --------------------------------------------------------------------- #
def test_fresh_tail_rows_are_always_candidates():
    covered = N_DOCS - 40
    quantizer = CoarseQuantizer.train(COORDS[:covered], 8, seed=0)
    assert quantizer.n_documents == covered
    q = np.random.default_rng(11).standard_normal(K)
    cells = quantizer.probe_cells(q, 1)
    cand = quantizer.candidates(cells, n_total=N_DOCS)
    assert set(range(covered, N_DOCS)) <= set(cand.tolist())

    # A post-training document that *is* the query direction wins rank 0
    # even at probes=1 — the tail is searched exactly.
    target = COORDS[covered + 5]
    pairs, _ = quantizer.select(
        COORDS, NORMS, target, probes=1, top=3, n_total=N_DOCS
    )
    assert pairs[0][0] == covered + 5


# --------------------------------------------------------------------- #
# persistence: format v2 round trip, format-1 fallback
# --------------------------------------------------------------------- #
def test_checkpoint_round_trip_reopens_identical_quantizer(
    tmp_path, quantizer
):
    write_checkpoint(
        tmp_path / STORE_LAYOUT["checkpoints"],
        quantizer.to_arrays(),
        {"ann": {"seed": 0}},
    )
    reopened = open_checkpoint(tmp_path, "ckpt-00000001").ann()
    assert reopened is not None
    assert np.array_equal(reopened.centroids, quantizer.centroids)
    assert np.array_equal(reopened.cell_indptr, quantizer.cell_indptr)
    assert np.array_equal(reopened.cell_docs, quantizer.cell_docs)
    q = np.random.default_rng(13).standard_normal(K)
    assert (
        reopened.select(COORDS, NORMS, q, probes=4, top=10)
        == quantizer.select(COORDS, NORMS, q, probes=4, top=10)
    )


def _texts(n: int = 24) -> list[str]:
    rng = np.random.default_rng(19)
    vocab = [f"w{i}" for i in range(30)]
    return [" ".join(rng.choice(vocab, size=12)) for _ in range(n)]


def _seeded_store(tmp_path):
    texts = _texts()
    ids = [f"D{i}" for i in range(len(texts))]
    data_dir = tmp_path / "store"
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=6)
    )
    return store, data_dir, texts


def test_durable_checkpoint_trains_and_reports_ann(tmp_path):
    store, data_dir, texts = _seeded_store(tmp_path)
    cells = default_n_clusters(len(texts))
    try:
        quantizer = open_latest_ann(data_dir)
        assert quantizer is not None
        assert quantizer.n_clusters == cells
        assert registry.snapshot()["gauges"]["store.ann_missing"] == 0
        description = read_store_status(data_dir)
        assert description["ann"] is True
        assert description["checkpoints"][-1]["ann_clusters"] == cells
    finally:
        store.close(flush=False)


def test_format1_checkpoint_serves_by_exact_fallback(tmp_path):
    # A format-2 checkpoint stripped of its quantizer arrays and
    # rewritten as format 1 is the pre-ANN layout.  Everything must
    # still serve — model mapped, no quantizer, ``store.ann_missing``
    # raised, probe requests answered by the exact scan.
    store, data_dir, texts = _seeded_store(tmp_path)
    store.close(flush=False)
    ckpt = sorted((data_dir / STORE_LAYOUT["checkpoints"]).iterdir())[-1]
    manifest_path = ckpt / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text("utf-8"))
    for name in ANN_ARRAY_NAMES:
        (ckpt / manifest["arrays"].pop(name)["file"]).unlink()
    del manifest["meta"]["ann"]
    manifest["format"] = 1
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))

    assert open_latest_ann(data_dir) is None
    assert registry.snapshot()["gauges"]["store.ann_missing"] == 1
    assert read_store_status(data_dir)["ann"] is False

    store = DurableIndexStore.open(data_dir)
    try:
        state = ServingState.for_store(store)
        snapshot = state.current()
        assert snapshot.ann is None
        with pytest.raises(ReproError):
            snapshot.search_ann(np.zeros(snapshot.model.k), probes=1)

        # A probe-bounded request through the service falls back to the
        # exact scan (counted) and answers identically to one without.
        registry.reset("ann.")

        async def main():
            service = QueryService(state, ServerConfig())
            await service.start()
            try:
                with_probes = await service.search(
                    texts[0], top=5, probes=3
                )
                without = await service.search(texts[0], top=5)
            finally:
                await service.drain()
            return with_probes, without

        with_probes, without = asyncio.run(main())
        assert with_probes["results"] == without["results"]
        assert "ann" not in with_probes
        counters = registry.snapshot()["counters"]
        assert counters["ann.exact_fallbacks_total"] >= 1
    finally:
        store.close(flush=False)
