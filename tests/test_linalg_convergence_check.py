"""The Lanczos convergence test: Ritz values + bottom row per check,
Ritz vectors once per fit, and an iteration cap that means what it says."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.linalg.lanczos as lanczos_module
from repro.errors import ConvergenceError
from repro.linalg import lanczos_svd, tridiag_eigh
from repro.linalg.tridiag import tridiag_eigh_bottom
from repro.sparse import from_dense


# --------------------------------------------------------------------- #
# (i) the row-only pass is the full solve's eigenvalues and last row
# --------------------------------------------------------------------- #
def _assert_bottom_is_last_row(d, e):
    w, Z = tridiag_eigh(d, e)
    w_b, bottom = tridiag_eigh_bottom(d, e)
    assert np.array_equal(w_b, w)
    assert np.array_equal(bottom, Z[-1])


_entries = st.floats(-50, 50, allow_nan=False, width=64)


@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=_entries),
            arrays(np.float64, n - 1, elements=_entries),
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_bottom_row_parity_property(pair):
    _assert_bottom_is_last_row(*pair)


@pytest.mark.parametrize(
    "d, e",
    [
        # wholly subnormal: the power-of-two rescale path
        (np.full(5, 1e-315), np.full(4, 2e-316)),
        (np.zeros(4), np.array([5e-324, 1e-320, 3e-310])),
        # zero diagonal with subnormal couplings before the entry that
        # sets the matrix scale: only the global tst1 split unsticks it
        (np.array([0.0, 0.0, 0.0, 1.0]), np.array([1e-310, 1e-300, 1e-200])),
        (np.array([2.0]), np.empty(0)),
    ],
)
def test_bottom_row_parity_on_stall_cases(d, e):
    _assert_bottom_is_last_row(d, e)


def test_bottom_row_of_empty_matrix():
    w, bottom = tridiag_eigh_bottom(np.empty(0), np.empty(0))
    assert w.shape == bottom.shape == (0,)


def test_bottom_row_parity_at_lanczos_size(rng):
    # A Lanczos-like tridiagonal: positive diagonal, decaying couplings.
    n = 120
    d = np.sort(rng.random(n))[::-1] * 100
    e = rng.random(n - 1) * np.linspace(5.0, 1e-9, n - 1)
    _assert_bottom_is_last_row(d, e)


# --------------------------------------------------------------------- #
# (ii) one vector-accumulating solve per fit, however many checks
# --------------------------------------------------------------------- #
def _bench_matrix(m, n, nnz_per_col, seed):
    rng = np.random.default_rng(seed)
    dense = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=nnz_per_col, replace=False)
        dense[rows, j] = rng.poisson(2.0, size=nnz_per_col) + 1.0
    return dense, from_dense(dense).to_csc()


def test_one_vector_solve_per_fit(monkeypatch):
    calls = {"vectors": 0, "bottom": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        lanczos_module, "tridiag_eigh", counted("vectors", tridiag_eigh)
    )
    monkeypatch.setattr(
        lanczos_module, "tridiag_eigh_bottom",
        counted("bottom", tridiag_eigh_bottom),
    )
    _, sparse = _bench_matrix(300, 250, 8, seed=5)
    _, _, _, stats = lanczos_svd(sparse, 6, check_every=4)
    assert calls["bottom"] == stats.iterations // 4 - 1  # first check at j=8
    assert calls["bottom"] >= 5
    assert calls["vectors"] == 1


# --------------------------------------------------------------------- #
# (iii) the iteration cap
# --------------------------------------------------------------------- #
def test_short_explicit_cap_raises(rng):
    a = rng.standard_normal((300, 200))
    with pytest.raises(ConvergenceError) as err:
        lanczos_svd(a, 10, max_iter=24)
    assert err.value.iterations == 24
    assert 0 <= err.value.achieved < 10


def test_sufficient_explicit_cap_returns(rng):
    d, sparse = _bench_matrix(300, 250, 8, seed=5)
    _, _, _, free = lanczos_svd(sparse, 6)
    _, s, _, capped = lanczos_svd(sparse, 6, max_iter=free.iterations)
    assert capped.iterations == free.iterations
    assert capped.converged == 6
    assert np.allclose(s, np.linalg.svd(d, compute_uv=False)[:6], atol=1e-9)


def test_default_grows_past_initial_basis_until_converged():
    # The k = 16 bench matrix needs more than the 4k+32 = 96 steps the
    # basis is first allocated for.
    dense, sparse = _bench_matrix(600, 500, 10, seed=3)
    _, s, _, stats = lanczos_svd(sparse, 16, seed=0)
    assert stats.iterations > 96
    assert stats.converged == 16
    s_ref = np.linalg.svd(dense, compute_uv=False)[:16]
    assert np.abs(s - s_ref).max() < 1e-10


def test_full_gram_dimension_is_exact(rng):
    a = rng.standard_normal((40, 12))
    U, s, V, stats = lanczos_svd(a, 12, max_iter=12)
    assert stats.iterations == 12 and stats.converged == 12
    assert np.allclose((U * s) @ V.T, a, atol=1e-9)


# --------------------------------------------------------------------- #
# (iv) null singular values keep both factors orthonormal
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("shape", [(12, 8), (8, 12), (40, 30), (30, 40)])
@pytest.mark.parametrize("k", [5, 6])
def test_rank_deficient_factors_stay_orthonormal(shape, k):
    rng = np.random.default_rng(0)
    m, n = shape
    a = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    U, s, V, _ = lanczos_svd(a, k)
    assert np.count_nonzero(s) == 3
    eye = np.eye(k)
    assert np.abs(U.T @ U - eye).max() < 1e-12
    assert np.abs(V.T @ V - eye).max() < 1e-12
    assert np.abs(a @ V - U * s).max() < 1e-12 * s[0]
