"""Property-based tests for the linear-algebra substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.svd import dense_svd, truncated_svd
from repro.linalg.tridiag import tridiag_eigh


def _finite_matrix(min_m=1, max_m=10, min_n=1, max_n=10):
    return st.integers(min_m, max_m).flatmap(
        lambda m: st.integers(min_n, max_n).flatmap(
            lambda n: arrays(
                np.float64,
                (m, n),
                elements=st.floats(-100, 100, allow_nan=False, width=64),
            )
        )
    )


@given(_finite_matrix())
@settings(max_examples=50, deadline=None)
def test_dense_svd_reconstruction_property(A):
    U, s, V = dense_svd(A)
    assert np.allclose((U * s) @ V.T, A, atol=1e-7)
    r = min(A.shape)
    assert np.allclose(U.T @ U, np.eye(r), atol=1e-7)
    assert np.allclose(V.T @ V, np.eye(r), atol=1e-7)
    assert np.all(s >= -1e-12)
    assert np.all(np.diff(s) <= 1e-9)


@given(_finite_matrix())
@settings(max_examples=50, deadline=None)
def test_dense_svd_norm_identities(A):
    """Theorem 2.1: ‖A‖_F² = Σσᵢ² and ‖A‖₂ = σ₁."""
    _, s, _ = dense_svd(A)
    np.testing.assert_allclose(np.sum(s**2), np.sum(A**2), atol=1e-5)
    if s.size:
        np.testing.assert_allclose(s[0], np.linalg.norm(A, 2), atol=1e-7)


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(-50, 50, allow_nan=False, width=64)),
            arrays(
                np.float64,
                max(n - 1, 0),
                elements=st.floats(-50, 50, allow_nan=False, width=64),
            ),
        )
    )
)
@settings(max_examples=50, deadline=None)
def test_tridiag_property(pair):
    d, e = pair
    n = d.size
    T = np.diag(d) + (np.diag(e, 1) + np.diag(e, -1) if n > 1 else 0.0)
    w, Z = tridiag_eigh(d, e)
    assert np.allclose(T @ Z, Z * w, atol=1e-6)
    assert np.allclose(sorted(w), np.linalg.eigvalsh(T), atol=1e-6)


@given(_finite_matrix(min_m=2, max_m=10, min_n=2, max_n=10), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_eckart_young_property(A, k):
    """Truncation is never better than the optimum (Theorem 2.2)."""
    k = min(k, min(A.shape))
    res = truncated_svd(A, k, method="dense")
    resid = np.linalg.norm(A - (res.U * res.s) @ res.V.T)
    s_all = np.linalg.svd(A, compute_uv=False)
    optimum = np.sqrt(np.sum(s_all[k:] ** 2))
    assert resid <= optimum + 1e-6
    assert resid >= optimum - 1e-6
