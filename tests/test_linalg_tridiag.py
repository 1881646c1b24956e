"""Tests for the implicit-QL tridiagonal eigensolver."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg.tridiag import tridiag_eigh


def _dense_tridiag(d, e):
    n = len(d)
    T = np.diag(d).astype(float)
    if n > 1:
        T += np.diag(e, 1) + np.diag(e, -1)
    return T


@pytest.mark.parametrize("n", [1, 2, 3, 8, 25])
def test_eigenpairs_satisfy_definition(n, rng):
    d = rng.standard_normal(n)
    e = rng.standard_normal(max(n - 1, 0))
    T = _dense_tridiag(d, e)
    w, Z = tridiag_eigh(d, e)
    assert np.allclose(T @ Z, Z * w, atol=1e-8)
    assert np.allclose(Z.T @ Z, np.eye(n), atol=1e-8)
    assert np.all(np.diff(w) >= -1e-12)  # ascending


def test_matches_numpy_eigvalsh(rng):
    d = rng.standard_normal(15)
    e = rng.standard_normal(14)
    w, _ = tridiag_eigh(d, e)
    assert np.allclose(w, np.linalg.eigvalsh(_dense_tridiag(d, e)), atol=1e-9)


def test_diagonal_matrix():
    d = np.array([3.0, -1.0, 2.0])
    w, Z = tridiag_eigh(d, np.zeros(2))
    assert np.allclose(w, sorted(d))
    assert np.allclose(np.abs(Z[np.abs(Z) > 0.5]), 1.0)


def test_degenerate_eigenvalues(rng):
    d = np.ones(6)
    e = np.zeros(5)
    w, Z = tridiag_eigh(d, e)
    assert np.allclose(w, 1.0)
    assert np.allclose(Z.T @ Z, np.eye(6), atol=1e-10)


def test_accepts_full_length_offdiag_buffer(rng):
    d = rng.standard_normal(5)
    e = np.concatenate([rng.standard_normal(4), [999.0]])  # trailing junk
    w, Z = tridiag_eigh(d, e)
    T = _dense_tridiag(d, e[:4])
    assert np.allclose(T @ Z, Z * w, atol=1e-8)


def test_rejects_wrong_offdiag_length():
    with pytest.raises(ShapeError):
        tridiag_eigh(np.zeros(4), np.zeros(2))


def test_empty_input():
    w, Z = tridiag_eigh(np.empty(0), np.empty(0))
    assert w.size == 0 and Z.shape == (0, 0)


def test_wilkinson_matrix_clustered_spectrum():
    # The classic W21+ matrix has pathologically close eigenvalue pairs.
    n = 21
    d = np.abs(np.arange(n) - (n - 1) / 2)
    e = np.ones(n - 1)
    w, Z = tridiag_eigh(d, e)
    T = _dense_tridiag(d, e)
    assert np.allclose(T @ Z, Z * w, atol=1e-7)
    assert np.allclose(w, np.linalg.eigvalsh(T), atol=1e-8)
