"""The one exact ranking (``repro.serving.scan``): bound, parity, paths.

Two kinds of comparison, kept apart on purpose:

* **ranked path against the full-width fp64 matrix** (``score_batch``,
  ``cosine_similarities``) — the reference surface ``ledger/checks.py``
  holds served replies to: indices identical, scores within 1e-12
  (:func:`assert_ranking_matches`).  BLAS may give one row a different
  last bit depending on where it sits, so bits are not compared here.
* **ranked path against ranked path** — flat, sliced, shard workers,
  batched, probe-bounded with every cell probed, the retrieval
  engine: bit-equal ``(index, score)`` lists, because a reported score
  is a pure function of (row, query).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.plan import ShardRange
from repro.cluster.worker import ShardWorker
from repro.core.model import LSIModel
from repro.core.similarity import retrieve
from repro.obs.metrics import registry
from repro.parallel.sharding import merge_topk
from repro.retrieval.engine import LSIRetrieval
from repro.server.state import EpochSnapshot
from repro.serving import scan
from repro.serving.ann import CoarseQuantizer
from repro.serving.index import scaled_rows
from repro.serving.kernel import ROW_BLOCK, row_cosines
from repro.serving.scan import prefilter_margin, ranked_scan
from repro.serving.topk import ranked_pairs
from repro.text.vocabulary import Vocabulary

SCORE_TOLERANCE = 1e-12  # ledger/checks.py's


def assert_ranking_matches(got, want, tol=SCORE_TOLERANCE):
    """Same indices in the same order; scores within ``tol``."""
    assert [j for j, _ in got] == [j for j, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert abs(a - b) <= tol


def whole_model_search(model, Q, top):
    """The whole-model snapshot's rankings of unscaled queries ``Q``.

    What every range merge, shard worker and fleet is held to bit for
    bit — after each ranking is itself held to the independent fp64
    oracle, the stable sort of its ``score_batch`` row: same indices,
    scores within 1e-12.
    """
    whole = EpochSnapshot(0, model)
    Q = np.atleast_2d(Q)
    results = whole.search(whole.scale(Q), top=top)[0]
    for got, row in zip(results, whole.score_batch(Q)):
        assert_ranking_matches(got, ranked_pairs(row, top=top))
    return results


def _model(V: np.ndarray, s: np.ndarray) -> LSIModel:
    k = V.shape[1]
    vocab = Vocabulary(f"t{i}" for i in range(k))
    vocab.freeze()
    # U = I: a query's count vector maps to q̂ = counts · Σ⁻¹ (Eq. 6).
    return LSIModel(
        U=np.eye(k), s=s, V=V, vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(V.shape[0])],
    )


def _adversarial(
    seed: int, k: int, n_plain: int, spread: float,
    near=(-9.0, -6.0), n_near: int = 24,
):
    """``(model, qhat)``: rows built to sit on the ranking's edges.

    Beside ``n_plain`` random rows: a cluster of near-ties — rows whose
    cosines differ by 1e-9 … 1e-6 (``10**near``), so by far less
    than single precision resolves (inside the margin) yet by far more
    than fp64 noise; verbatim copies (exact ties → ascending index);
    zero-norm rows.  Singular values span ``spread⁻¹ … spread``.
    """
    rng = np.random.default_rng(seed)
    s = np.sort(np.logspace(-1, 1, k) ** np.log10(spread))[::-1].copy()
    qhat = rng.standard_normal(k) / s  # every factor weighs in ``q̂ Σ``
    plain = rng.standard_normal((n_plain, k))
    # Near-ties are made in the comparison space and mapped back through
    # Σ⁻¹: *different* directions (so their fp32 errors are independent)
    # at cosines 0.55 ± 1e-9 … 1e-6 with the query — ahead of most
    # random rows, and away from 1, where single precision is coarsest.
    u = qhat * s
    u /= np.linalg.norm(u)
    r = rng.standard_normal((n_near, k))
    r -= np.outer(r @ u, u)
    r /= np.linalg.norm(r, axis=1, keepdims=True)
    offsets = 10.0 ** rng.uniform(*near, size=n_near)
    c = (0.55 + rng.choice([-1.0, 1.0], size=n_near) * offsets)[:, None]
    lengths = rng.uniform(0.5, 2.0, size=(n_near, 1))
    cluster = lengths * (c * u + np.sqrt(1.0 - c * c) * r)
    rows = np.vstack([plain, cluster / s])
    rows = rows[rng.permutation(rows.shape[0])]
    picks = rng.choice(rows.shape[0], size=6, replace=False)
    V = np.vstack([rows, rows[picks], np.zeros((3, k)), rows[picks[:2]]])
    return _model(V, s), qhat


def _first_copy(coords: np.ndarray) -> np.ndarray:
    """For each row, the first row with the same bytes (itself if none)."""
    seen: dict[bytes, int] = {}
    return np.array(
        [seen.setdefault(row.tobytes(), j) for j, row in enumerate(coords)]
    )


def _reference(snapshot, qhat, top, threshold):
    """The ranking the fp64 ``score_batch`` row defines.

    ``np.argsort(-score, kind="stable")``, filtered and truncated —
    after giving verbatim copies of a row one value: identical rows tie
    by definition, while a BLAS GEMV's last bit can depend on where a
    row sits.
    """
    coords = (snapshot.model.V * snapshot.model.s)[snapshot.lo:snapshot.hi]
    score = snapshot.score_batch(qhat)[0][_first_copy(coords)]
    order = np.argsort(-score, kind="stable")
    if threshold is not None:
        order = order[score[order] >= threshold]
    return [(snapshot.lo + int(j), float(score[j])) for j in order[:top]]


def _threshold_between(score: np.ndarray, rank: int) -> float:
    """A cut-off strictly between two adjacent distinct scores near
    ``rank`` — never *on* a score, where one ulp would decide."""
    ordered = np.sort(np.unique(score))[::-1]
    for r in range(min(rank, ordered.size - 2), ordered.size - 1):
        if ordered[r] - ordered[r + 1] > 1e-13:
            return float((ordered[r] + ordered[r + 1]) / 2)
    return float(ordered[-1] - 1.0)


@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([2, 3, 7, 16, 64, 65, 150, 300]),
    n_plain=st.integers(5, 60),
    spread=st.sampled_from([1.0, 1e3, 1e6]),
    lo=st.sampled_from([0, 1, 3, 5]),
    top_kind=st.sampled_from(["1", "few", "n-1", "n", "none"]),
    threshold_rank=st.one_of(st.none(), st.integers(0, 40)),
    zero_query=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_ranking_equals_stable_sort_of_the_fp64_row(
    seed, k, n_plain, spread, lo, top_kind, threshold_rank, zero_query
):
    model, qhat = _adversarial(seed, k, n_plain, spread)
    if zero_query:
        qhat = np.zeros(k)  # the all-OOV query
    snapshot = EpochSnapshot(
        0, model, lo=lo, hi=None if lo == 0 else model.n_documents
    )
    n = snapshot.hi - snapshot.lo
    top = {"1": 1, "few": 7, "n-1": n - 1, "n": n, "none": None}[top_kind]
    threshold = None
    if threshold_rank is not None:
        threshold = _threshold_between(
            snapshot.score_batch(qhat)[0], threshold_rank
        )
    got = snapshot.search(
        snapshot.scale(qhat), top=top, threshold=threshold
    )[0][0]
    assert_ranking_matches(got, _reference(snapshot, qhat, top, threshold))
    # Exact ties (verbatim copies, zero rows) come out bit-equal, lower
    # index first.
    first = _first_copy((model.V * model.s)[lo:snapshot.hi]) + lo
    by_index = dict(got)
    for j, score in got:
        assert score == by_index.get(int(first[j - lo]), score)
    for (ja, a), (jb, b) in zip(got, got[1:]):
        assert a > b or (a == b and ja < jb)


@pytest.mark.parametrize("seed", range(6))
def test_near_ties_need_the_margin(seed, monkeypatch):
    """The bound is load-bearing: the near-tie cluster is ranked right
    with the proven margin and wrong without one."""
    model, qhat = _adversarial(
        seed, 64, 40, 1e3, near=(-9.0, -7.0), n_near=200
    )
    snapshot = EpochSnapshot(0, model)
    Qs = snapshot.scale(qhat)
    # The cut falls inside the cluster, whose order fp32 cannot see.
    want = _reference(snapshot, qhat, 100, None)
    assert_ranking_matches(snapshot.search(Qs, top=100)[0][0], want)
    monkeypatch.setattr(scan, "prefilter_margin", lambda k: 0.0)
    cut_short = snapshot.search(Qs, top=100)[0][0]
    assert [j for j, _ in cut_short] != [j for j, _ in want]


def test_margin_bounds_the_measured_fp32_error():
    rng = np.random.default_rng(3)
    for k in (2, 8, 64, 300):
        s = np.sort(np.logspace(-6, 6, k))[::-1].copy()
        scaled = scaled_rows(rng.standard_normal((4000, k)) / s, s)
        Qs = rng.standard_normal((4, k))
        approx = scan.approx_cosines(scaled.unit, Qs)
        for i, q in enumerate(Qs):
            exact = row_cosines(scaled.V, scaled.s, scaled.norms, q)
            assert np.abs(approx[:, i] - exact).max() <= prefilter_margin(k) / 2
    assert prefilter_margin(64) == 2 * 72 * 2.0**-24


def test_prefilter_is_tight_and_counted():
    rng = np.random.default_rng(5)
    s = np.linspace(5.0, 0.5, 32)
    snapshot = EpochSnapshot(0, _model(rng.standard_normal((3000, 32)), s))
    registry.reset("serving.")
    Qs = snapshot.scale(rng.standard_normal((20, 32)))
    snapshot.search(Qs, top=10)
    candidates = registry.histogram("serving.rescore_candidates")
    assert candidates.count == 20
    # Random rows have no near-ties: the fp64 pass sees about ``top`` rows.
    assert candidates.sum <= 20 * 4 * 10
    assert registry.histogram("serving.scan_seconds").count == 1
    # The reference kernel is not on the ranked path.
    assert registry.histogram("serving.gemm_seconds") is None


def test_derived_arrays_are_read_only_for_whole_model_and_range():
    rng = np.random.default_rng(6)
    model = _model(rng.standard_normal((50, 4)), np.array([4.0, 3.0, 2.0, 1.0]))
    model.V[7] = 0.0
    whole, part = EpochSnapshot(0, model), EpochSnapshot(0, model, lo=3, hi=20)
    for snapshot in (whole, part):
        for array in (snapshot.norms, snapshot.scaled.unit):
            assert not array.flags.writeable
        assert snapshot.scaled.positive is False  # row 7, decided at build
        assert np.array_equal(snapshot.scaled.unit[7 - snapshot.lo], np.zeros(4))
    # The rows scored are the model's own V, never a copy of it.
    assert whole.scaled.V is model.V
    assert np.shares_memory(part.scaled.V, model.V)
    assert np.array_equal(part.norms, whole.norms[3:20])
    assert np.array_equal(part.scaled.unit, whole.scaled.unit[3:20])


def test_no_n_by_k_fp64_array_is_formed():
    """The norms and unit rows are derived, and an unbounded ranking is
    rescored, from ``V`` in row blocks: peak traced allocation stays
    below one n × k fp64 array, and every value is the bits the whole
    product ``V * s`` gives."""
    rng = np.random.default_rng(14)
    n, k = 8 * ROW_BLOCK + 123, 48
    s = np.sort(rng.random(k) + 0.5)[::-1].copy()
    model = _model(rng.standard_normal((n, k)), s)
    one_copy = n * k * 8
    q = model.s * rng.standard_normal(k)
    tracemalloc.start()
    try:
        snapshot = EpochSnapshot(0, model)  # derives the model's memo
        _, peak = tracemalloc.get_traced_memory()
        assert peak < one_copy
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        got = snapshot.search(q[None, :], top=None, threshold=None)[0][0]
        _, peak = tracemalloc.get_traced_memory()
        assert peak - held < one_copy
    finally:
        tracemalloc.stop()
    coords = model.V * model.s
    norms = np.sqrt(np.sum(coords * coords, axis=1))
    rows = snapshot.scaled
    assert np.array_equal(rows.norms, norms)
    assert np.array_equal(rows.unit, (coords / norms[:, None]).astype(np.float32))
    # The unbounded ranking: every row, scored as from the whole product.
    assert len(got) == n
    whole = np.einsum("ij,j->i", coords, q) / (np.sqrt(np.dot(q, q)) * norms)
    assert all(score == whole[j] for j, score in got)


# --------------------------------------------------------------------- #
# every ranked path reports the same bits
# --------------------------------------------------------------------- #
def test_every_ranked_path_is_bit_equal():
    rng = np.random.default_rng(12)
    n, k, top = 2001, 64, 20
    s = np.sort(rng.random(k) + 0.5)[::-1].copy()
    V = rng.standard_normal((n, k))
    V[1500:1520] = V[40:60]  # exact ties across shard boundaries
    model = _model(V, s)
    whole = EpochSnapshot(0, model)
    engine = LSIRetrieval(model)
    queries = [
        [f"t{j}" for j in rng.integers(0, k, size=9)] for _ in range(16)
    ]
    Q = np.stack([engine.query_vector(tokens) for tokens in queries])
    Qs = whole.scale(Q)
    flat = whole.search(Qs, top=top)[0]

    # Two shard workers on an unaligned split, merged as the router does.
    workers = [
        ShardWorker(model, ShardRange(0, 0, 1003)),
        ShardWorker(model, ShardRange(1, 1003, n)),
    ]
    wire = [worker.score(Qs, top, None)[0] for worker in workers]
    for i, want in enumerate(flat):
        assert merge_topk([w[i] for w in wire], top) == want
    # A batch of 1 and the same query inside the batch of 16.
    for i in (0, 7, 15):
        assert whole.search(Qs[i:i + 1], top=top)[0][0] == flat[i]
    # A range that starts off every BLAS row-group boundary.
    full = dict(whole.search(Qs[:1], top=n)[0][0])
    for j, score in EpochSnapshot(0, model, lo=3, hi=1000).search(
        Qs[:1], top=top
    )[0][0]:
        assert score == full[j]
    # Probe-bounded with every cell probed.
    quantizer = CoarseQuantizer.train(model.V * model.s, 12, seed=0)
    probing = EpochSnapshot(0, model, ann=quantizer)
    assert probing.search(Qs, top=top, probes=12)[0] == flat
    # The retrieval engine and §3.1's ``retrieve``.
    assert engine.search(queries[0], top=top) == flat[0]
    assert retrieve(model, Q[0], top=top) == [
        (f"D{j}", score) for j, score in flat[0]
    ]
    # And all of it is the fp64 matrix's ranking.
    for i, got in enumerate(flat[:4]):
        row = whole.score_batch(Q[i:i + 1])[0]
        order = np.argsort(-row, kind="stable")[:top]
        # (copies may swap inside a tie the GEMV splits in the last bit)
        assert sorted(j for j, _ in got) == sorted(order.tolist())
        assert np.abs(np.array([sc for _, sc in got]) - row[order]).max() <= 1e-12


def test_ranked_scan_handles_empty_ranges_and_degenerate_tops():
    rng = np.random.default_rng(2)
    scaled = scaled_rows(rng.standard_normal((9, 3)), np.ones(3))
    Qs = rng.standard_normal((2, 3))
    empty = scaled_rows(np.empty((0, 3)), np.ones(3))
    assert ranked_scan(empty, Qs, [3, None], [None, 0.1]) == [[], []]
    assert ranked_scan(scaled, Qs, [0, -1], [None, None]) == [[], []]
    everything = ranked_scan(scaled, Qs, [None, 50], [None, None], offset=100)
    assert all(len(r) == 9 and min(j for j, _ in r) == 100 for r in everything)


# --------------------------------------------------------------------- #
# the batch's fp32 pass, in row blocks
# --------------------------------------------------------------------- #
def _block_rows(q: int, k: int) -> int:
    return scan.SCAN_BLOCK // (q * k)


@pytest.mark.parametrize("q", [1, 2, 3, 5, 17])
def test_blocked_pass_is_within_the_margin_at_every_block_edge(q):
    """Rows on both sides of each block boundary read within the
    per-entry bound ``prefilter_margin`` is proven from."""
    rng = np.random.default_rng(40 + q)
    k = 64
    block = _block_rows(q, k)
    s = np.sort(np.logspace(-3, 3, k))[::-1].copy()
    scaled = scaled_rows(rng.standard_normal((3 * block + 7, k)) / s, s)
    Qs = rng.standard_normal((q, k))
    exact = np.stack(
        [row_cosines(scaled.V, scaled.s, scaled.norms, row) for row in Qs],
        axis=1,
    )
    for n in (1, block - 1, block, block + 1, 3 * block + 7):
        approx = scan.approx_cosines(scaled.unit[:n], Qs)
        assert approx.shape == (n, q) and approx.dtype == np.float32
        assert np.abs(approx - exact[:n]).max() <= prefilter_margin(k) / 2


def test_single_query_pass_is_one_gemv():
    """At q = 1 the pass is the one matrix-vector product, bit for bit —
    what a shard worker's candidate set is cut from."""
    rng = np.random.default_rng(41)
    n = 3 * _block_rows(1, 32) + 5
    unit = rng.standard_normal((n, 32)).astype(np.float32)
    Qs = rng.standard_normal((1, 32))
    want = unit @ scan.unit_queries(Qs).T
    assert np.array_equal(scan.approx_cosines(unit, Qs), want)


@pytest.mark.parametrize("q", [1, 2])
def test_blocked_pass_over_an_empty_shard(q):
    Qs = np.random.default_rng(42).standard_normal((q, 8))
    approx = scan.approx_cosines(np.empty((0, 8), dtype=np.float32), Qs)
    assert approx.shape == (0, q)
    empty = scaled_rows(np.empty((0, 8)), np.ones(8))
    assert ranked_scan(empty, Qs, [5] * q, [None] * q) == [[]] * q


def _bits(results):
    return [[(j, score.hex()) for j, score in pairs] for pairs in results]


def test_a_batch_ranks_as_its_single_queries_do():
    """A q-query flush spans several row blocks; each of its rankings is
    the same bits as that query scored alone — whole model, row range,
    and a cell-ordered layout with a fresh tail."""
    rng = np.random.default_rng(43)
    k, q = 64, 6
    n = 3 * _block_rows(q, k) + 11  # > one 2-query block of 4 096 rows too
    s = np.sort(rng.random(k) + 0.5)[::-1].copy()
    V = rng.standard_normal((n, k))
    V[-200:-100] = V[100:200]  # exact ties across block boundaries
    model = _model(V, s)
    Qs = EpochSnapshot(0, model).scale(rng.standard_normal((q, k)))
    Qs[4] = 0.0  # the all-OOV query
    tops = [10, 1, None, 200, 10, 3]
    thresholds = [None, None, 0.2, None, None, 0.05]
    quantizer = CoarseQuantizer.train((V * s)[: n - 500], 16, seed=0)
    snapshots = [
        EpochSnapshot(0, model),
        EpochSnapshot(0, model, lo=777, hi=n - 5),
        EpochSnapshot(0, model, ann=quantizer),  # the last 500 rows: the tail
    ]
    assert snapshots[2].scaled.order is not None
    for snapshot in snapshots:
        for width in (2, q):
            batch = snapshot.search(
                Qs[:width], top=tops[:width], threshold=thresholds[:width]
            )[0]
            alone = [
                snapshot.search(
                    Qs[i:i + 1], top=tops[i], threshold=thresholds[i]
                )[0][0]
                for i in range(width)
            ]
            assert _bits(batch) == _bits(alone)
    rows = scaled_rows(V, s)
    assert _bits(ranked_scan(rows, Qs, tops, thresholds)) == _bits(
        [ranked_scan(rows, Qs[i:i + 1], tops[i:i + 1], thresholds[i:i + 1])[0]
         for i in range(q)]
    )
