"""Tests for sparsifying a dense array (``from_dense``)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse.build import from_dense
from repro.sparse.csc import CSCMatrix


def test_from_dense_tolerance():
    d = np.array([[1e-15, 1.0], [0.5, 0.0]])
    m = from_dense(d, tol=1e-12)
    assert isinstance(m, CSCMatrix)
    assert m.nnz == 2
    assert np.array_equal(m.indptr, [0, 1, 2])
    assert np.array_equal(m.indices, [1, 0])
    assert np.array_equal(m.data, [0.5, 1.0])


def test_from_dense_rejects_non_2d():
    with pytest.raises(ShapeError):
        from_dense(np.zeros(3))
