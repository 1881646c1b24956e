"""Unit tests for the COO format."""

import numpy as np
import pytest

from repro.errors import ShapeError, SparseFormatError
from repro.sparse import COOMatrix, from_dense


def test_construction_and_basic_properties():
    m = COOMatrix((3, 4), [0, 2], [1, 3], [5.0, -2.0])
    assert m.shape == (3, 4)
    assert m.nnz == 2
    dense = m.to_dense()
    assert dense[0, 1] == 5.0 and dense[2, 3] == -2.0
    assert dense.sum() == 3.0


def test_duplicates_are_summed():
    m = COOMatrix((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.5, 4.0])
    assert m.nnz == 2
    assert m.to_dense()[0, 0] == 3.5


def test_duplicate_merge_preserves_all_coordinates():
    m = COOMatrix((2, 3), [0, 0, 0, 1], [2, 2, 0, 1], [1, 1, 1, 1])
    dense = m.to_dense()
    assert dense[0, 2] == 2 and dense[0, 0] == 1 and dense[1, 1] == 1


def test_row_out_of_bounds_rejected():
    with pytest.raises(SparseFormatError):
        COOMatrix((2, 2), [2], [0], [1.0])


def test_col_out_of_bounds_rejected():
    with pytest.raises(SparseFormatError):
        COOMatrix((2, 2), [0], [5], [1.0])


def test_mismatched_lengths_rejected():
    with pytest.raises(SparseFormatError):
        COOMatrix((2, 2), [0, 1], [0], [1.0])


def test_negative_shape_rejected():
    with pytest.raises(ShapeError):
        COOMatrix((-1, 2), [], [], [])


def test_immutability():
    m = COOMatrix((2, 2), [0], [0], [1.0])
    with pytest.raises(AttributeError):
        m.shape = (3, 3)


def test_empty_matrix():
    m = COOMatrix((3, 3), [], [], [])
    assert m.nnz == 0
    assert np.array_equal(m.to_dense(), np.zeros((3, 3)))
    assert m.to_csr().nnz == 0
    assert m.to_csc().nnz == 0


def test_zero_dimension():
    m = COOMatrix((0, 5), [], [], [])
    assert m.nnz == 0
    assert m.to_dense().shape == (0, 5)


def test_round_trip_conversions(rng):
    d = rng.random((7, 5)) * (rng.random((7, 5)) < 0.4)
    m = from_dense(d)
    assert np.allclose(m.to_csr().to_dense(), d)
    assert np.allclose(m.to_csc().to_dense(), d)
    assert np.allclose(m.to_csc().to_coo().to_dense(), d)


def test_repr_mentions_shape_and_nnz():
    m = COOMatrix((2, 2), [0], [0], [1.0])
    assert "shape=(2, 2)" in repr(m) and "nnz=1" in repr(m)
