"""Unit tests for the CSC format and its kernels."""

import numpy as np
import pytest

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import CSCMatrix, from_dense
from repro.sparse.ops import MATMAT_CHUNK, csc_matmat


@pytest.fixture
def dense(rng):
    d = rng.random((6, 9)) * (rng.random((6, 9)) < 0.5)
    d[4] = 0.0  # an empty row
    d[:, 2] = 0.0  # an empty column
    return d


@pytest.fixture
def csc(dense):
    return from_dense(dense)


def test_format_invariants_validated():
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [0, 1], [0], [1.0])  # indptr too short
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 1.0])  # decreasing
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 1.0])  # row oob
    with pytest.raises(SparseFormatError):
        CSCMatrix((2, 2), [1, 1, 2], [0, 1], [1.0, 1.0])  # indptr[0] != 0


# ``A @ X`` at every chunk size: one column per chunk, a chunk that does
# not divide the 21 columns, the default, one chunk for all and more.
PRODUCTS = [("matvec", None), ("rmatvec", None)] + [
    ("matmat", chunk) for chunk in (1, 4, MATMAT_CHUNK, 21, 33)
]


@pytest.mark.parametrize(
    "product, chunk",
    PRODUCTS,
    ids=[p if c is None else f"{p}-chunk{c}" for p, c in PRODUCTS],
)
def test_products_match_dense(dense, csc, rng, product, chunk):
    x = rng.standard_normal(9)
    y = rng.standard_normal(6)
    X = rng.standard_normal((9, 21))
    if product == "matvec":
        got, want = csc.matvec(x), dense @ x
        assert np.array_equal(csc @ x, got)
    elif product == "rmatvec":
        got, want = csc.rmatvec(y), dense.T @ y
    else:
        got, want = csc_matmat(csc, X, chunk), dense @ X
        if chunk == MATMAT_CHUNK:
            assert np.array_equal(csc @ X, got)
    assert got.shape == want.shape
    assert np.allclose(got, want)


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


def test_product_shape_validation(csc):
    with pytest.raises(ShapeError):
        csc.matvec(np.zeros(5))
    with pytest.raises(ShapeError):
        csc.rmatvec(np.zeros(9))
    with pytest.raises(ShapeError):
        csc.matmat(np.zeros((6, 2)))
    with pytest.raises(ShapeError):
        csc @ np.zeros((2, 2, 2))


def test_empty_columns():
    d = np.zeros((3, 4))
    d[2, 1] = 5.0
    c = from_dense(d)
    assert np.array_equal(c.indptr, [0, 0, 1, 1, 1])
    assert np.allclose(c.matvec(np.ones(4)), d @ np.ones(4))
    assert np.allclose(c.rmatvec(np.ones(3)), d.T @ np.ones(3))


def test_sums(dense, csc):
    assert np.allclose(csc.row_sums(), dense.sum(axis=1))


def test_conversions(dense, csc):
    """The two assembly routes — dense and triples — build the same
    arrays, and both densify back to the source."""
    rows, cols = np.nonzero(dense)
    triples = CSCMatrix.from_triples(dense.shape, rows, cols, dense[rows, cols])
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(triples, name), getattr(csc, name))
    assert np.array_equal(csc.to_dense(), dense)


def test_expanded_cols_cached(csc):
    a = csc.expanded_cols()
    assert a is csc.expanded_cols()
    assert np.array_equal(a, np.repeat(np.arange(9), np.diff(csc.indptr)))


def test_immutability(csc):
    with pytest.raises(AttributeError):
        csc.indptr = None
