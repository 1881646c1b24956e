"""Unit tests for the CSC format."""

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import CSCMatrix, from_dense


@pytest.fixture
def dense(rng):
    return rng.random((6, 9)) * (rng.random((6, 9)) < 0.5)


@pytest.fixture
def csc(dense):
    return from_dense(dense).to_csc()


def test_format_invariants_validated():
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [0, 1], [0], [1.0])
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 1.0])
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 1.0])


def test_matvec_and_rmatvec(dense, csc, rng):
    x = rng.standard_normal(9)
    y = rng.standard_normal(6)
    assert np.allclose(csc.matvec(x), dense @ x)
    assert np.allclose(csc.rmatvec(y), dense.T @ y)
    assert np.allclose(csc @ x, dense @ x)


def test_matmat_and_rmatmat(dense, csc, rng):
    X = rng.standard_normal((9, 18))
    Y = rng.standard_normal((6, 18))
    assert np.allclose(csc.matmat(X), dense @ X)
    assert np.allclose(
        np.column_stack([csc.rmatvec(y) for y in Y.T]), dense.T @ Y
    )


def test_empty_columns():
    d = np.zeros((3, 4))
    d[2, 1] = 5.0
    c = from_dense(d).to_csc()
    assert np.array_equal(c.indptr, [0, 0, 1, 1, 1])
    assert np.allclose(c.matvec(np.ones(4)), d @ np.ones(4))


def test_sums(dense, csc):
    assert np.allclose(csc.row_sums(), dense.sum(axis=1))


def test_conversions(dense, csc):
    assert np.allclose(csc.to_csr().to_dense(), dense)
    assert np.allclose(csc.to_coo().to_dense(), dense)


def test_immutability(csc):
    with pytest.raises(AttributeError):
        csc.indptr = None
