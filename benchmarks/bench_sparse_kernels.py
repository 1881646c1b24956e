"""HPC substrate benches: sparse kernels and scoring execution shapes.

Covers the §5.6 open issue "efficiently comparing queries to documents"
at laptop scale: CSC ``A @ x``, ``Aᵀ @ y`` and ``A @ X`` (with its
chunking ablation), each reported in ns per stored entry — the unit a
faster product kernel is judged in — and the execution shape the
cluster tier serves by — contiguous row ranges, each ranked on its own
and merged with ``merge_topk`` — against the whole-model search
(identical results, different execution shape).
"""

import time

import numpy as np
import pytest

from conftest import emit
from repro.core.model import LSIModel
from repro.core.similarity import cosine_similarities
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.serving.snapshot import EpochSnapshot
from repro.sparse.build import from_dense
from repro.sparse.ops import csc_matmat
from repro.text.vocabulary import Vocabulary
from repro.util.rng import ensure_rng

#: Right-hand-side columns of the ``A @ X`` bench.
MATMAT_COLUMNS = 32


@pytest.fixture(scope="module")
def big_sparse():
    rng = ensure_rng(9)
    m, n = 3000, 2000
    dense = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=15, replace=False)
        dense[rows, j] = 1.0
    return dense, from_dense(dense)


def _ns_per_nnz(fn, nnz, repeats=9):
    """Median wall time of ``fn()`` over ``repeats`` calls, per stored entry."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e9 * float(np.median(times)) / nnz


def test_csc_matvec_throughput(benchmark, big_sparse):
    dense, csc = big_sparse
    x = ensure_rng(1).standard_normal(csc.shape[1])
    y = benchmark(csc.matvec, x)
    assert np.allclose(y, dense @ x)
    emit("CSC A @ x", [f"{csc.shape} nnz={csc.nnz}: "
                       f"{_ns_per_nnz(lambda: csc.matvec(x), csc.nnz):.2f} ns/nnz"])


def test_csc_rmatvec_throughput(benchmark, big_sparse):
    dense, csc = big_sparse
    y = ensure_rng(1).standard_normal(csc.shape[0])
    x = benchmark(csc.rmatvec, y)
    assert np.allclose(x, dense.T @ y)
    emit("CSC Aᵀ @ y", [f"{csc.shape} nnz={csc.nnz}: "
                        f"{_ns_per_nnz(lambda: csc.rmatvec(y), csc.nnz):.2f} ns/nnz"])


@pytest.mark.parametrize("chunk", [4, 16, 64])
def test_matmat_chunk_ablation(benchmark, big_sparse, chunk):
    dense, csc = big_sparse
    X = ensure_rng(1).standard_normal((csc.shape[1], MATMAT_COLUMNS))
    Y = benchmark(csc_matmat, csc, X, chunk)
    assert np.allclose(Y, dense @ X)
    per_entry = _ns_per_nnz(lambda: csc_matmat(csc, X, chunk), csc.nnz)
    emit(f"CSC A @ X, chunk={chunk}", [
        f"{csc.shape} nnz={csc.nnz}, {MATMAT_COLUMNS} columns: "
        f"{per_entry:.2f} ns/nnz ({per_entry / MATMAT_COLUMNS:.2f} per column)"
    ])


@pytest.fixture(scope="module")
def scoring_model():
    rng = ensure_rng(4)
    n, k = 50_000, 50
    V = rng.standard_normal((n, k))
    s = np.sort(rng.random(k) + 0.5)[::-1]
    return LSIModel(
        U=np.eye(k),
        s=s,
        V=V,
        vocabulary=Vocabulary([f"t{i}" for i in range(k)]).freeze(),
        doc_ids=[f"d{j}" for j in range(n)],
    )


def test_flat_cosine_scoring(benchmark, scoring_model):
    qhat = ensure_rng(2).standard_normal(scoring_model.k)
    scores = benchmark(cosine_similarities, scoring_model, qhat)
    assert scores.shape == (scoring_model.n_documents,)


def test_range_merge_equals_whole_model(benchmark, scoring_model):
    """Row ranges ranked on their own and merged with ``merge_topk`` are
    the whole-model search, bit for bit, however the rows are cut."""
    n, top = scoring_model.n_documents, 10
    whole = EpochSnapshot(0, scoring_model)
    Qs = whole.scale(ensure_rng(2).standard_normal((16, scoring_model.k)))
    flat, _ = whole.search(Qs, top=top)

    def range_merge(cuts):
        per_range = [
            EpochSnapshot(0, scoring_model, lo=lo, hi=hi).search(
                Qs, top=top
            )[0]
            for lo, hi in cuts
        ]
        return [
            merge_topk([found[qi] for found in per_range], top)
            for qi in range(Qs.shape[0])
        ]

    shapes = (1, 2, 4, 7)
    for shards in shapes:
        assert range_merge(shard_bounds(n, shards)) == flat
    merged = benchmark(range_merge, shard_bounds(n, shapes[-1]))
    assert merged == flat
    emit(
        "near-neighbour scoring shapes",
        [f"n={n} k={scoring_model.k}, {Qs.shape[0]} queries, top={top}: "
         f"{'/'.join(map(str, shapes))} row ranges merged with merge_topk "
         "equal the whole-model search bit for bit"],
    )
