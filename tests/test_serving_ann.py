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
  per-shard rankings reproduces the single-node probe bit for bit (and
  the per-shard exact scan when every cell is probed).
* **The cell layout** — a probe over contiguous cell slices through the
  exact scan's prefilter cut equals rescoring every candidate, bit for
  bit; the exact scan over cell-ordered rows equals it over
  document-ordered ones; the layout replaces the document-ordered
  single-precision rows rather than sitting beside them.
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

from repro.core.model import LSIModel
from repro.errors import ReproError
from repro.obs.metrics import registry
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.server import QueryService, ServerConfig
from repro.server.state import EpochSnapshot, ServingState, manager_from_texts
from repro.serving.ann import (
    ANN_ARRAY_NAMES,
    CoarseQuantizer,
    default_n_clusters,
)
from repro.serving.index import scaled_documents, scaled_rows
from repro.serving.kernel import cosine_scores, row_cosines, row_norms
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
from repro.text.vocabulary import Vocabulary
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


def _rows(quantizer, lo: int = 0, hi: int = N_DOCS, coords=COORDS):
    """Rows ``[lo, hi)`` of ``coords`` laid out by ``quantizer``'s cells."""
    return scaled_rows(coords[lo:hi], np.ones(coords.shape[1]), quantizer, lo=lo)


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
            _rows(quantizer, lo, hi), q,
            probes=quantizer.n_clusters, top=top, offset=lo,
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
    # Below the full probe count the merged shard ranking is the
    # single-node probe's, element for element: every range probes the
    # same cells, and the row-local kernel gives a row the same bits
    # whichever range holds it.
    q = np.random.default_rng(9).standard_normal(K)
    probes = 3
    whole, _ = quantizer.select(
        _rows(quantizer), q, probes=probes, top=None
    )
    parts = [
        quantizer.select(
            _rows(quantizer, lo, hi), q, probes=probes, top=None, offset=lo
        )[0]
        for lo, hi, _, _ in _shard_slices(3)
    ]
    merged = merge_topk(parts, N_DOCS)
    assert merged == whole


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
        _rows(quantizer), target, probes=1, top=3
    )
    assert pairs[0][0] == covered + 5


# --------------------------------------------------------------------- #
# the cell layout: bit-equal to rescoring every candidate
# --------------------------------------------------------------------- #
def _layout_coords() -> np.ndarray:
    """Rows with exact ties: verbatim copies (inside the trained rows and
    in the fresh tail) and two zero rows."""
    base = _coords(seed=21, n=240)
    rows = np.vstack([base, base[:30:3], base[5:6].repeat(6, 0), base[::40]])
    rows[[17, 250]] = 0.0
    return rows


LAYOUT_COORDS = _layout_coords()
LAYOUT_COVERED = 230  # rows the quantizer sees; the rest is the fresh tail


@pytest.fixture(scope="module")
def layout_quantizer() -> CoarseQuantizer:
    """Trained on the first rows, with an empty cell spliced in at 2."""
    trained = CoarseQuantizer.train(LAYOUT_COORDS[:LAYOUT_COVERED], 9, seed=4)
    empty_direction = -trained.centroids.sum(axis=0)
    return CoarseQuantizer(
        np.insert(trained.centroids, 2, empty_direction, axis=0),
        np.insert(trained.cell_indptr, 2, trained.cell_indptr[2]),
        trained.cell_docs,
    )


def _reference_select(quantizer, q, *, probes, top, threshold, lo, hi):
    """The reference probe: gather every candidate in ascending order,
    score them all with the row-local kernel, rank."""
    n = LAYOUT_COORDS.shape[0]
    cells = quantizer.probe_cells(q, probes)
    cand = quantizer.candidates(cells, n_total=n, lo=lo, hi=hi)
    ones = np.ones(LAYOUT_COORDS.shape[1])  # the rows are already scaled
    scores = row_cosines(LAYOUT_COORDS, ones, row_norms(LAYOUT_COORDS), q, cand)
    order = ranked_order(scores, top=top, threshold=threshold)
    return [(int(cand[i]), float(scores[i])) for i in order], cand.size


def _bits(pairs):
    return [(j, score.hex()) for j, score in pairs]


def _layout_queries(quantizer):
    rng = np.random.default_rng(23)
    return [
        rng.standard_normal(K),
        rng.standard_normal(K),
        LAYOUT_COORDS[5],  # six verbatim copies tie at the top
        quantizer.centroids[2],  # its nearest cell is the empty one
        np.zeros(K),
    ]


@pytest.mark.parametrize("lo,hi", [(0, None), (0, 90), (90, 200), (200, None)])
def test_cell_probe_is_bit_equal_to_rescoring_every_candidate(
    layout_quantizer, lo, hi
):
    quantizer = layout_quantizer
    hi = LAYOUT_COORDS.shape[0] if hi is None else hi
    rows = _rows(quantizer, lo, hi, LAYOUT_COORDS)
    assert rows.order is not None and rows.order.size == hi - lo
    for q in _layout_queries(quantizer):
        for probes in (1, 3, quantizer.n_clusters):
            for top in (None, 1, 10, 10_000):
                for threshold in (None, 0.3):
                    want, scanned = _reference_select(
                        quantizer, q, probes=probes, top=top,
                        threshold=threshold, lo=lo, hi=hi,
                    )
                    got, stats = quantizer.select(
                        rows, q, probes=probes, top=top,
                        threshold=threshold, offset=lo,
                    )
                    assert _bits(got) == _bits(want), (probes, top, threshold)
                    assert stats["candidates"] == scanned


def test_full_probe_over_the_layout_equals_the_exact_scan(layout_quantizer):
    quantizer = layout_quantizer
    rows = _rows(quantizer, coords=LAYOUT_COORDS)
    for q in _layout_queries(quantizer):
        for top, threshold in ((1, None), (10, None), (None, 0.3), (7, 0.1)):
            probe, _ = quantizer.select(
                rows, q, probes=quantizer.n_clusters, top=top,
                threshold=threshold,
            )
            exact = ranked_scan(rows, q[None, :], [top], [threshold])[0]
            assert _bits(probe) == _bits(exact)


@pytest.mark.parametrize("lo,hi", [(0, None), (90, 200)])
@pytest.mark.parametrize("batch", [1, 16])
def test_exact_scan_over_the_layout_equals_document_order(
    layout_quantizer, lo, hi, batch
):
    hi = LAYOUT_COORDS.shape[0] if hi is None else hi
    ones = np.ones(K)
    cells = scaled_rows(LAYOUT_COORDS[lo:hi], ones, layout_quantizer, lo=lo)
    flat = scaled_rows(LAYOUT_COORDS[lo:hi], ones, lo=lo)
    assert flat.order is None and cells.order is not None
    assert not np.array_equal(cells.unit, flat.unit)
    Qs = np.random.default_rng(29).standard_normal((batch, K))
    Qs[0] = LAYOUT_COORDS[5]
    for tops, thresholds in (
        ([10] * batch, [None] * batch),
        ([1] * batch, [0.2] * batch),
        ([None] * batch, [0.4] * batch),
        ([None] * batch, [None] * batch),
    ):
        got = ranked_scan(cells, Qs, tops, thresholds, offset=lo)
        want = ranked_scan(flat, Qs, tops, thresholds, offset=lo)
        assert [_bits(r) for r in got] == [_bits(r) for r in want]


def _layout_model() -> LSIModel:
    vocab = Vocabulary(f"t{i}" for i in range(12))
    vocab.freeze()
    n = LAYOUT_COORDS.shape[0]
    return LSIModel(
        U=np.random.default_rng(31).standard_normal((12, K)),
        s=np.ones(K),
        V=LAYOUT_COORDS.copy(),
        vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(n)],
    )


def _arrays(*holders) -> list[np.ndarray]:
    """Every array attribute of ``holders`` (fields and slots)."""
    found = []
    for holder in holders:
        names = getattr(holder, "_fields", None) or holder.__slots__
        for name in names:
            value = getattr(holder, name)
            if isinstance(value, np.ndarray):
                found.append(value)
    return found


@pytest.mark.parametrize("lo,hi", [(0, None), (60, 200)])
def test_a_laid_out_snapshot_holds_one_single_precision_copy(
    layout_quantizer, lo, hi
):
    # What the serving RSS bound leans on: the cell layout replaces the
    # document-ordered fp32 rows, it never sits beside them.
    model = _layout_model()
    snapshot = EpochSnapshot(0, model, lo=lo, hi=hi, ann=layout_quantizer)
    rows = snapshot.hi - snapshot.lo
    unit = snapshot.scaled.unit
    assert unit.dtype == np.float32 and unit.shape == (rows, K)
    assert unit.base is None  # owns its rows: not a view of a larger copy
    held = _arrays(snapshot, snapshot.scaled, snapshot.ann)
    single = [a for a in held if a.dtype == np.float32]
    assert len(single) == 1 and single[0] is unit
    large = {id(a) for a in held if a.nbytes >= unit.nbytes}
    # The other one is the model's own V (rows lo:hi), held, not copied.
    assert large == {id(unit), id(snapshot.scaled.V)}
    assert np.shares_memory(snapshot.scaled.V, model.V)
    memo = getattr(model, "_scaled_documents", None)
    if snapshot.lo == 0 and snapshot.hi == model.n_documents:
        assert memo[0] is layout_quantizer and memo[1] is snapshot.scaled
    else:
        assert memo is None  # a range never derives the whole model's rows


def test_a_snapshot_lays_out_a_document_ordered_memo_again(layout_quantizer):
    model = _layout_model()
    flat = scaled_documents(model)  # what the retrieval engine derives
    assert flat.order is None
    snapshot = EpochSnapshot(0, model, ann=layout_quantizer)
    laid = snapshot.scaled
    assert laid.order is not None and laid.unit is not flat.unit
    # Both score the model's own V; the model holds only the laid-out
    # fp32 rows, derived again with their norms.
    assert laid.V is flat.V is model.V
    assert np.array_equal(laid.norms, flat.norms)
    assert model._scaled_documents[1] is laid
    assert scaled_documents(model) is laid  # any layout serves the exact scan
    assert np.array_equal(laid.unit, flat.unit[laid.order])


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
        reopened.select(_rows(reopened), q, probes=4, top=10)
        == quantizer.select(_rows(quantizer), q, probes=4, top=10)
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
