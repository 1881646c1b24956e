"""Unit tests for the CSR format and its kernels."""

import numpy as np
import pytest

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import CSRMatrix, from_dense


@pytest.fixture
def dense(rng):
    return rng.random((9, 6)) * (rng.random((9, 6)) < 0.5)


@pytest.fixture
def csr(dense):
    return from_dense(dense).to_csr()


def test_format_invariants_validated():
    with pytest.raises(SparseFormatError):
        CSRMatrix((2, 2), [0, 1], [0], [1.0])  # indptr too short
    with pytest.raises(SparseFormatError):
        CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 1.0])  # decreasing
    with pytest.raises(SparseFormatError):
        CSRMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 1.0])  # col oob
    with pytest.raises(SparseFormatError):
        CSRMatrix((2, 2), [1, 1, 2], [0, 1], [1.0, 1.0])  # indptr[0] != 0


def test_matvec_matches_dense(dense, csr, rng):
    x = rng.standard_normal(6)
    assert np.allclose(csr.matvec(x), dense @ x)
    assert np.allclose(csr @ x, dense @ x)


def test_rmatvec_matches_dense(dense, csr, rng):
    y = rng.standard_normal(9)
    assert np.allclose(csr.rmatvec(y), dense.T @ y)


def test_matmat_matches_dense(dense, csr, rng):
    X = rng.standard_normal((6, 21))
    assert np.allclose(csr.matmat(X), dense @ X)
    assert np.allclose(csr @ X, dense @ X)


def test_matmat_chunking_boundary(dense, csr, rng):
    from repro.sparse.ops import csr_matmat

    X = rng.standard_normal((6, 33))
    assert np.allclose(csr_matmat(csr, X, chunk=4), dense @ X)
    assert np.allclose(csr_matmat(csr, X, chunk=33), dense @ X)


def test_matvec_shape_validation(csr):
    with pytest.raises(ShapeError):
        csr.matvec(np.zeros(5))
    with pytest.raises(ShapeError):
        csr @ np.zeros((2, 2, 2))


def test_empty_rows_handled():
    d = np.zeros((4, 3))
    d[1, 2] = 7.0
    c = from_dense(d).to_csr()
    assert np.allclose(c.matvec(np.ones(3)), d @ np.ones(3))
    assert np.array_equal(c.indptr, [0, 0, 1, 1, 1])


def test_row_slice(dense, csr):
    cols, vals = csr.row_slice(2)
    rebuilt = np.zeros(6)
    rebuilt[cols] = vals
    assert np.allclose(rebuilt, dense[2])
    with pytest.raises(ShapeError):
        csr.row_slice(100)


def test_expanded_rows_cached(csr):
    a = csr.expanded_rows()
    b = csr.expanded_rows()
    assert a is b


def test_immutability(csr):
    with pytest.raises(AttributeError):
        csr.data = None
