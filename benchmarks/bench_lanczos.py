"""§2/§5.6 — the sparse truncated-SVD substrate itself.

Regenerates the computational story behind the TREC anecdote (A₂₀₀ of a
90,000×70,000 matrix on a 1995 workstation): Lanczos vs dense SVD
scaling on sparse term-document-like matrices, the reorthogonalization
ablation (the DESIGN.md design-choice callout), and backend agreement.
"""

import numpy as np
import pytest

from conftest import emit
from repro.linalg import lanczos_svd, truncated_svd
from repro.sparse import from_dense
from repro.util.rng import ensure_rng


def _sparse_tdm_like(m, n, nnz_per_col, seed=0):
    """Synthetic term-document-like matrix: sparse non-negative counts."""
    rng = ensure_rng(seed)
    dense = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=nnz_per_col, replace=False)
        dense[rows, j] = rng.poisson(2.0, size=nnz_per_col) + 1.0
    return dense, from_dense(dense)


@pytest.mark.parametrize("method", ["lanczos", "dense"])
def test_backend_timing(benchmark, method):
    dense, sparse = _sparse_tdm_like(400, 300, 12, seed=1)
    k = 10
    res = benchmark(truncated_svd, sparse, k, method=method)

    s_ref = np.linalg.svd(dense, compute_uv=False)[:k]
    assert np.allclose(res.s, s_ref, atol=1e-6)


def test_reorthogonalization_ablation(benchmark):
    """Full vs no reorthogonalization: 'none' is cheaper per step but
    produces ghost duplicates in the tail of the spectrum — why 'full'
    is the default."""
    dense, sparse = _sparse_tdm_like(500, 400, 10, seed=2)
    k = 8
    s_ref = np.linalg.svd(dense, compute_uv=False)

    U, s_full, V, stats_full = benchmark(
        lanczos_svd, sparse, k, seed=0
    )
    # No cap: without reorthogonalization the residual test still passes
    # eventually — on ghost copies of the top Ritz values.
    _, s_none, _, stats_none = lanczos_svd(sparse, k, reorth="none", seed=0)

    err_full = np.abs(s_full - s_ref[:k]).max()
    err_none = np.abs(s_none - s_ref[:k]).max()
    rows = [
        f"reorth=full: iterations={stats_full.iterations} "
        f"max |σ−ref| = {err_full:.2e}",
        f"reorth=none: iterations={stats_none.iterations} "
        f"max |σ−ref| = {err_none:.2e}",
        "top singular value agrees in both; the tail only under full "
        "reorthogonalization",
    ]
    emit("Lanczos reorthogonalization ablation", rows)

    assert err_full < 1e-7
    assert s_none[0] == pytest.approx(s_ref[0], rel=1e-6)
    assert err_full <= err_none + 1e-12


def test_lanczos_scaling_with_k(benchmark):
    """Iterations grow roughly linearly in k (the cost model's I term)."""
    dense, sparse = _sparse_tdm_like(600, 500, 10, seed=3)

    def run(k):
        return lanczos_svd(sparse, k, seed=0)[3]

    stats_small = run(4)
    stats_big = benchmark(run, 16)

    rows = [
        f"k=4 : I={stats_small.iterations} matvecs={stats_small.matvecs}",
        f"k=16: I={stats_big.iterations} matvecs={stats_big.matvecs}",
    ]
    emit("Lanczos iteration scaling with k", rows)
    assert stats_big.iterations > stats_small.iterations
