"""Tests for the matrix builder."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import MatrixBuilder, from_dense


def test_builder_accumulates_duplicates():
    b = MatrixBuilder((3, 3))
    b.add(0, 0, 1.0)
    b.add(0, 0, 2.0)
    b.add(2, 1)
    assert len(b) == 3
    dense = b.to_csc().to_dense()
    assert dense[0, 0] == 3.0 and dense[2, 1] == 1.0


def test_builder_bounds_checked():
    b = MatrixBuilder((2, 2))
    with pytest.raises(ShapeError):
        b.add(2, 0)
    with pytest.raises(ShapeError):
        b.add(0, -1)


def test_builder_add_many_and_column():
    b = MatrixBuilder((4, 4))
    b.add_many([0, 1], [1, 2], [3.0, 4.0])
    b.add_column(3, [0, 2], [1.0, 1.0])
    d = b.to_csc().to_dense()
    assert d[0, 1] == 3.0 and d[1, 2] == 4.0
    assert d[0, 3] == 1.0 and d[2, 3] == 1.0


def test_builder_add_many_defaults_to_ones():
    b = MatrixBuilder((2, 2))
    b.add_many([0, 1], [0, 1])
    assert b.to_coo().data.tolist() == [1.0, 1.0]


def test_builder_add_many_length_mismatch():
    b = MatrixBuilder((2, 2))
    with pytest.raises(ShapeError):
        b.add_many([0, 1], [0], [1.0, 2.0])


def test_from_dense_tolerance():
    d = np.array([[1e-15, 1.0], [0.5, 0.0]])
    m = from_dense(d, tol=1e-12)
    assert m.nnz == 2


def test_from_dense_rejects_non_2d():
    with pytest.raises(ShapeError):
        from_dense(np.zeros(3))

