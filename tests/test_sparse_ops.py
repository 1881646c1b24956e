"""Tests for the shared sparse kernels and column stacking."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse.build import from_dense
from repro.sparse.csc import hstack_csc


def test_hstack_csc(rng):
    a = rng.random((5, 3)) * (rng.random((5, 3)) < 0.5)
    b = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
    c = np.zeros((5, 2))
    stacked = hstack_csc([from_dense(x) for x in (a, b, c)])
    assert np.allclose(stacked.to_dense(), np.hstack([a, b, c]))


def test_hstack_csc_rejects_mismatched_rows(rng):
    a = from_dense(rng.random((5, 3)))
    b = from_dense(rng.random((4, 3)))
    with pytest.raises(ShapeError):
        hstack_csc([a, b])
    with pytest.raises(ShapeError):
        hstack_csc([])


def test_kernels_on_zero_nnz(rng):
    csc = from_dense(np.zeros((4, 3)))
    assert np.array_equal(csc.matvec(np.ones(3)), np.zeros(4))
    assert np.array_equal(csc.rmatvec(np.ones(4)), np.zeros(3))
    assert np.array_equal(csc.matmat(np.ones((3, 2))), np.zeros((4, 2)))


def test_matmat_zero_columns(rng):
    d = rng.random((4, 3))
    csc = from_dense(d)
    out = csc.matmat(np.zeros((3, 0)))
    assert out.shape == (4, 0)
