"""The Lanczos convergence test: one eigensolve per check, none after
the loop, eigenpairs that hold on stalling inputs, typed LAPACK failures,
and an iteration cap that means what it says."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.linalg.lanczos as lanczos_module
from repro.errors import ConvergenceError
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.tridiag import tridiag_eigh
from repro.sparse.build import from_dense


# --------------------------------------------------------------------- #
# (i) eigenpairs on inputs that stall an unguarded QL sweep
# --------------------------------------------------------------------- #
def _dense_tridiag(d, e):
    T = np.diag(d)
    T[np.arange(1, d.size), np.arange(d.size - 1)] = e
    return T + np.tril(T, -1).T


@pytest.mark.parametrize(
    "d, e",
    [
        # wholly subnormal
        (np.full(5, 1e-315), np.full(4, 2e-316)),
        (np.zeros(4), np.array([5e-324, 1e-320, 3e-310])),
        # zero diagonal with subnormal couplings before the entry that
        # sets the matrix scale
        (np.array([0.0, 0.0, 0.0, 1.0]), np.array([1e-310, 1e-300, 1e-200])),
        (np.array([2.0]), np.empty(0)),
    ],
)
def test_eigenpairs_on_stall_cases(d, e):
    w, Z = tridiag_eigh(d, e)
    T = _dense_tridiag(d, e)
    scale = np.abs(T).max()
    # T z = w z to rounding of ‖T‖ (and of the subnormal grid, 2⁻¹⁰⁷⁴).
    assert np.abs(T @ Z - Z * w).max() <= 16 * np.finfo(float).eps * scale + 1e-322
    assert np.abs(Z.T @ Z - np.eye(d.size)).max() < 1e-14
    assert np.all(np.diff(w) >= 0)


_entries = st.floats(-50, 50, allow_nan=False, width=64)


@given(
    st.integers(1, 24).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=_entries),
            arrays(np.float64, n - 1, elements=_entries),
            _entries,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_bottom_row_parity_property(triple):
    # The convergence check reads w and the bottom row Z[-1]; a trailing
    # element in the offdiagonal buffer (in-place Lanczos) must not move
    # either, and Z[-1] is the last row of an orthonormal eigenbasis of T.
    d, e, junk = triple
    w, Z = tridiag_eigh(d, e)
    w_buf, Z_buf = tridiag_eigh(d, np.append(e, junk))
    assert np.array_equal(w_buf, w)
    assert np.array_equal(Z_buf[-1], Z[-1])
    T = _dense_tridiag(d, e)
    scale = max(np.abs(T).max(), 1.0)
    assert np.abs(T @ Z - Z * w).max() <= 64 * np.finfo(float).eps * scale
    assert abs(np.linalg.norm(Z[-1]) - 1.0) < 1e-13
    assert np.allclose(w, np.linalg.eigvalsh(T), atol=1e-12 * scale)


def test_bottom_row_of_empty_matrix():
    w, Z = tridiag_eigh(np.empty(0), np.empty(0))
    assert w.shape == (0,)
    assert Z.shape == (0, 0)
    assert Z[-1:].size == 0


def test_eigenpairs_at_lanczos_size(rng):
    # A Lanczos-like tridiagonal: positive diagonal, decaying couplings.
    n = 120
    d = np.sort(rng.random(n))[::-1] * 100
    e = rng.random(n - 1) * np.linspace(5.0, 1e-9, n - 1)
    w, Z = tridiag_eigh(d, e)
    T = _dense_tridiag(d, e)
    assert np.abs(T @ Z - Z * w).max() <= 1e-12 * np.abs(T).max()
    assert np.abs(Z.T @ Z - np.eye(n)).max() < 1e-13


# --------------------------------------------------------------------- #
# (ii) one eigensolve per convergence check, none after the loop
# --------------------------------------------------------------------- #
def _bench_matrix(m, n, nnz_per_col, seed):
    rng = np.random.default_rng(seed)
    dense = np.zeros((m, n))
    for j in range(n):
        rows = rng.choice(m, size=nnz_per_col, replace=False)
        dense[rows, j] = rng.poisson(2.0, size=nnz_per_col) + 1.0
    return dense, from_dense(dense)


def test_one_eigensolve_per_check(monkeypatch):
    steps = []

    def counted(d, e):
        steps.append(len(d))
        return tridiag_eigh(d, e)

    monkeypatch.setattr(lanczos_module, "tridiag_eigh", counted)
    _, sparse = _bench_matrix(300, 250, 8, seed=5)
    _, _, _, stats = lanczos_svd(sparse, 6, check_every=4)
    # One solve at every check (the first at j = 8 ≥ k), the last at the
    # step that passed — nothing after the loop.
    assert steps == list(range(8, stats.iterations + 1, 4))
    assert len(steps) >= 5


def test_eigensolver_failure_is_typed(monkeypatch, rng):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        tridiag_eigh(np.ones(3), np.ones(2))
    with pytest.raises(ConvergenceError):
        lanczos_svd(rng.standard_normal((30, 20)), 3)


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
