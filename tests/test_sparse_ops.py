"""Tests for the shared sparse kernels: stacking and segment sums."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse import from_dense, hstack_csc
from repro.sparse.ops import _segment_sums


def test_hstack_csc(rng):
    a = rng.random((5, 3)) * (rng.random((5, 3)) < 0.5)
    b = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
    c = np.zeros((5, 2))
    stacked = hstack_csc([from_dense(x).to_csc() for x in (a, b, c)])
    assert np.allclose(stacked.to_dense(), np.hstack([a, b, c]))


def test_hstack_csc_rejects_mismatched_rows(rng):
    a = from_dense(rng.random((5, 3))).to_csc()
    b = from_dense(rng.random((4, 3))).to_csc()
    with pytest.raises(ShapeError):
        hstack_csc([a, b])
    with pytest.raises(ShapeError):
        hstack_csc([])


def test_segment_sums_with_empty_segments():
    contrib = np.array([[1.0], [2.0], [3.0]])
    indptr = np.array([0, 0, 2, 2, 3])
    out = _segment_sums(contrib, indptr)
    assert np.allclose(out.ravel(), [0.0, 3.0, 0.0, 3.0])


def test_segment_sums_single_segment():
    contrib = np.arange(4.0)[:, None]
    out = _segment_sums(contrib, np.array([0, 4]))
    assert out.ravel()[0] == 6.0


def test_kernels_on_zero_nnz(rng):
    z = from_dense(np.zeros((4, 3)))
    csr, csc = z.to_csr(), z.to_csc()
    assert np.allclose(csr.matvec(np.ones(3)), 0)
    assert np.allclose(csr.rmatvec(np.ones(4)), 0)
    assert np.allclose(csc.matvec(np.ones(3)), 0)
    assert np.allclose(csc.rmatvec(np.ones(4)), 0)
    assert np.allclose(csr.matmat(np.ones((3, 2))), 0)
    assert np.allclose(csc.matmat(np.ones((3, 2))), 0)


def test_matmat_zero_columns(rng):
    d = rng.random((4, 3))
    csc = from_dense(d).to_csc()
    out = csc.matmat(np.zeros((3, 0)))
    assert out.shape == (4, 0)
