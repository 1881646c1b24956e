"""Compressed sparse column (CSC) format — the column-major compute format.

CSC stores column ``j`` in the slice ``indptr[j]:indptr[j+1]`` of
``indices`` (row ids) and ``data``.  In LSI the columns are *documents*:
fold-in extracts document columns, and appending new documents (the ``D``
block of Eq. 10) is a cheap column-wise concatenation in this format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ShapeError, SparseFormatError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sparse.coo import COOMatrix
    from repro.sparse.csr import CSRMatrix

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """Immutable CSC sparse matrix."""

    __slots__ = ("shape", "indptr", "indices", "data", "_col_cache")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ):
        m, n = int(shape[0]), int(shape[1])
        indptr = np.asarray(indptr, dtype=np.int64).ravel()
        indices = np.asarray(indices, dtype=np.int64).ravel()
        data = np.asarray(data, dtype=np.float64).ravel()
        if indptr.size != n + 1:
            raise SparseFormatError(f"indptr must have length n+1={n + 1}, got {indptr.size}")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise SparseFormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if indices.size != data.size:
            raise SparseFormatError("indices and data must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= m):
            raise SparseFormatError("row index out of bounds")
        object.__setattr__(self, "shape", (m, n))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_col_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("CSCMatrix is immutable")

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"

    def expanded_cols(self) -> np.ndarray:
        """Per-nonzero column index (length nnz), cached after first use."""
        if self._col_cache is None:
            cols = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr)
            )
            object.__setattr__(self, "_col_cache", cols)
        return self._col_cache

    # ------------------------------------------------------------------ #
    # linear algebra
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` (scatter along columns)."""
        from repro.sparse.ops import csc_matvec

        return csc_matvec(self, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ y`` — a gather, since rows of Aᵀ are our columns."""
        from repro.sparse.ops import csc_rmatvec

        return csc_rmatvec(self, y)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Compute ``A @ X`` for dense ``X``."""
        from repro.sparse.ops import csc_matmat

        return csc_matmat(self, X)

    def __matmul__(self, other):
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            return self.matmat(other)
        raise ShapeError("CSCMatrix @ operand must be 1-D or 2-D")

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def row_sums(self) -> np.ndarray:
        """Vector of row sums, length m."""
        return np.bincount(self.indices, weights=self.data, minlength=self.shape[0])

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_coo(self) -> "COOMatrix":
        """Convert to coordinate format."""
        from repro.sparse.coo import COOMatrix

        return COOMatrix(
            self.shape, self.indices, self.expanded_cols(), self.data,
            sum_duplicates=False,
        )

    def to_csr(self) -> "CSRMatrix":
        """Convert to compressed sparse row format."""
        return self.to_coo().to_csr()

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.indices, self.expanded_cols()] = self.data
        return out
