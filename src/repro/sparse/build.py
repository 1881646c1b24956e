"""Sparsifying a dense array into the one sparse format."""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csc import CSCMatrix

__all__ = ["from_dense"]


def from_dense(a: np.ndarray, *, tol: float = 0.0) -> CSCMatrix:
    """Sparsify a dense array, keeping entries with ``|a_ij| > tol``."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"from_dense expects 2-D input, got ndim={arr.ndim}")
    # Nonzeros of the transpose come column by column, rows ascending.
    col, row = np.nonzero(np.abs(arr.T) > tol)
    indptr = np.zeros(arr.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=arr.shape[1]), out=indptr[1:])
    return CSCMatrix(arr.shape, indptr, row, arr[row, col])
