"""Unit tests for assembly from coordinate (COO) triples:
``CSCMatrix.from_triples``."""

import numpy as np
import pytest

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import CSCMatrix, from_dense


def test_construction_and_basic_properties():
    m = CSCMatrix.from_triples((3, 4), [0, 2], [1, 3], [5.0, -2.0])
    assert m.shape == (3, 4)
    assert m.nnz == 2
    dense = m.to_dense()
    assert dense[0, 1] == 5.0 and dense[2, 3] == -2.0
    assert dense.sum() == 3.0


def test_duplicates_are_summed():
    m = CSCMatrix.from_triples((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.5, 4.0])
    assert m.nnz == 2
    assert m.to_dense()[0, 0] == 3.5


def test_duplicate_merge_preserves_all_coordinates():
    m = CSCMatrix.from_triples((2, 3), [0, 0, 0, 1], [2, 2, 0, 1], [1, 1, 1, 1])
    dense = m.to_dense()
    assert dense[0, 2] == 2 and dense[0, 0] == 1 and dense[1, 1] == 1
    assert np.array_equal(m.indptr, [0, 1, 2, 3])
    assert np.array_equal(m.indices, [0, 1, 0])


def test_row_out_of_bounds_rejected():
    with pytest.raises(SparseFormatError):
        CSCMatrix.from_triples((2, 2), [2], [0], [1.0])
    with pytest.raises(SparseFormatError):
        CSCMatrix.from_triples((2, 2), [-1], [0], [1.0])


def test_col_out_of_bounds_rejected():
    with pytest.raises(SparseFormatError):
        CSCMatrix.from_triples((2, 2), [0], [5], [1.0])
    with pytest.raises(SparseFormatError):
        CSCMatrix.from_triples((2, 2), [0], [-1], [1.0])


def test_mismatched_lengths_rejected():
    with pytest.raises(SparseFormatError):
        CSCMatrix.from_triples((2, 2), [0, 1], [0], [1.0])
    with pytest.raises(SparseFormatError):
        CSCMatrix.from_triples((2, 2), [0, 1], [0, 1], [1.0])


def test_negative_shape_rejected():
    with pytest.raises(ShapeError):
        CSCMatrix.from_triples((-1, 2), [], [], [])


def test_immutability():
    m = CSCMatrix.from_triples((2, 2), [0], [0], [1.0])
    with pytest.raises(AttributeError):
        m.shape = (3, 3)


def test_empty_matrix():
    m = CSCMatrix.from_triples((3, 3), [], [], [])
    assert m.nnz == 0
    assert np.array_equal(m.to_dense(), np.zeros((3, 3)))
    assert np.array_equal(m.indptr, np.zeros(4))


def test_zero_dimension():
    m = CSCMatrix.from_triples((0, 5), [], [], [])
    assert m.nnz == 0
    assert m.to_dense().shape == (0, 5)


def test_round_trip_conversions(rng):
    """The triples of a dense matrix, in any order, assemble the arrays
    ``from_dense`` builds."""
    d = rng.random((7, 5)) * (rng.random((7, 5)) < 0.4)
    rows, cols = np.nonzero(d)
    order = rng.permutation(rows.size)
    m = CSCMatrix.from_triples(d.shape, rows[order], cols[order], d[rows, cols][order])
    want = from_dense(d)
    assert np.array_equal(m.indptr, want.indptr)
    assert np.array_equal(m.indices, want.indices)
    assert np.array_equal(m.data, want.data)
    assert np.array_equal(m.to_dense(), d)


def test_repr_mentions_shape_and_nnz():
    m = CSCMatrix.from_triples((2, 2), [0], [0], [1.0])
    assert "shape=(2, 2)" in repr(m) and "nnz=1" in repr(m)
