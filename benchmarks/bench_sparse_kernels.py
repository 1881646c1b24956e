"""HPC substrate benches: sparse kernels and scoring execution shapes.

Covers the §5.6 open issue "efficiently comparing queries to documents"
at laptop scale: CSR/CSC matvec throughput, the matmat chunking ablation,
and blocked/sharded cosine scoring vs the flat path (identical results,
different execution shape — the DESIGN.md ablation).
"""

import numpy as np
import pytest

from conftest import emit
from repro.core.model import LSIModel
from repro.core.similarity import cosine_similarities
from repro.parallel import sharded_search
from repro.server.state import EpochSnapshot
from repro.sparse import from_dense
from repro.sparse.ops import csr_matmat
from repro.text import Vocabulary
from repro.util.rng import ensure_rng


@pytest.fixture(scope="module")
def big_sparse():
    rng = ensure_rng(9)
    m, n = 3000, 2000
    dense = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=15, replace=False)
        dense[rows, j] = 1.0
    return from_dense(dense)


def test_csr_matvec_throughput(benchmark, big_sparse):
    csr = big_sparse.to_csr()
    x = np.ones(csr.shape[1])
    y = benchmark(csr.matvec, x)
    assert y.shape == (csr.shape[0],)


def test_csc_rmatvec_throughput(benchmark, big_sparse):
    csc = big_sparse.to_csc()
    y = np.ones(csc.shape[0])
    x = benchmark(csc.rmatvec, y)
    assert x.shape == (csc.shape[1],)


@pytest.mark.parametrize("chunk", [4, 16, 64])
def test_matmat_chunk_ablation(benchmark, big_sparse, chunk):
    csr = big_sparse.to_csr()
    rng = ensure_rng(1)
    X = rng.standard_normal((csr.shape[1], 32))
    Y = benchmark(csr_matmat, csr, X, chunk)
    assert Y.shape == (csr.shape[0], 32)


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


def test_blocked_cosine_scoring(benchmark, scoring_model):
    snapshot = EpochSnapshot(0, scoring_model)
    Qs = snapshot.scale(ensure_rng(2).standard_normal(scoring_model.k))
    (flat,), _ = snapshot.search(Qs, top=10)
    # 7 row blocks of ~7k rows each, scored one after the other.
    (blocked,), _ = benchmark(snapshot.search, Qs, top=10, shards=7)
    assert [j for j, _ in blocked] == [j for j, _ in flat]
    assert np.allclose([c for _, c in blocked], [c for _, c in flat])


def test_sharded_search_parallel(benchmark, scoring_model):
    qhat = ensure_rng(2).standard_normal(scoring_model.k)
    flat = cosine_similarities(scoring_model, qhat)
    best_flat = int(np.argmax(flat))

    top = benchmark(
        sharded_search, scoring_model, qhat, shards=4, top=10, workers=4
    )
    assert top[0][0] == best_flat
    emit(
        "near-neighbour scoring shapes",
        [f"n={scoring_model.n_documents} k={scoring_model.k}: flat, "
         "blocked and sharded paths return identical rankings"],
    )
