"""Tests for the one small-dense SVD (``dense_svd``, LAPACK)."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ShapeError
from repro.linalg import dense_svd, truncated_svd


@pytest.mark.parametrize("shape", [(1, 1), (4, 4), (8, 3), (3, 8), (20, 12)])
def test_svd_reconstruction(shape, rng):
    A = rng.standard_normal(shape)
    U, s, V = dense_svd(A)
    r = min(shape)
    assert U.shape == (shape[0], r) and s.shape == (r,) and V.shape == (shape[1], r)
    assert np.allclose((U * s) @ V.T, A, atol=1e-9)
    assert np.allclose(U.T @ U, np.eye(r), atol=1e-9)
    assert np.allclose(V.T @ V, np.eye(r), atol=1e-9)
    assert np.all(np.diff(s) <= 1e-12)  # descending
    assert np.all(s >= 0)


def test_matches_lapack_singular_values(rng):
    A = rng.standard_normal((15, 9))
    _, s, _ = dense_svd(A)
    assert np.allclose(s, np.linalg.svd(A, compute_uv=False), atol=1e-9)


def test_rank_one_matrix(rng):
    A = np.outer(rng.standard_normal(7), rng.standard_normal(4))
    U, s, V = dense_svd(A)
    assert np.sum(s > 1e-10) == 1
    assert s[0] == pytest.approx(np.linalg.norm(A, 2), abs=1e-9)
    assert np.allclose((U * s) @ V.T, A, atol=1e-9)
    # U is orthonormal even for null singular values
    assert np.allclose(U.T @ U, np.eye(4), atol=1e-8)


def test_zero_matrix():
    U, s, V = dense_svd(np.zeros((5, 3)))
    assert np.allclose(s, 0)
    assert np.allclose(U.T @ U, np.eye(3), atol=1e-8)
    assert np.allclose(V.T @ V, np.eye(3), atol=1e-8)


def test_identity():
    U, s, V = dense_svd(np.eye(4))
    assert np.allclose(s, 1.0)


def test_diagonal_with_known_values():
    A = np.diag([5.0, 2.0, 0.5])
    _, s, _ = dense_svd(A)
    assert np.allclose(s, [5.0, 2.0, 0.5])


def test_tiny_singular_values_high_relative_accuracy():
    # Graded matrix: small singular values keep their relative accuracy.
    A = np.diag([1.0, 1e-6, 1e-12])
    _, s, _ = dense_svd(A)
    assert s[1] == pytest.approx(1e-6, rel=1e-10)
    assert s[2] == pytest.approx(1e-12, rel=1e-8)


def test_empty_dimensions():
    U, s, V = dense_svd(np.zeros((0, 3)))
    assert s.size == 0 and U.shape == (0, 0) and V.shape == (3, 0)


def test_rejects_non_matrix():
    with pytest.raises(ShapeError):
        dense_svd(np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite(bad):
    A = np.eye(3)
    A[1, 2] = bad
    with pytest.raises(ShapeError):
        dense_svd(A)


def test_wide_matrix(rng):
    A = rng.standard_normal((3, 10))
    U, s, V = dense_svd(A)
    assert U.shape == (3, 3) and V.shape == (10, 3)
    assert np.allclose((U * s) @ V.T, A, atol=1e-9)


def test_lapack_non_convergence_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceError, match="did not converge"):
        dense_svd(np.eye(3))
    with pytest.raises(ConvergenceError):
        truncated_svd(np.eye(3), 2, method="dense")
