"""Compressed sparse column (CSC) format — the one sparse matrix type.

CSC stores column ``j`` in the slice ``indptr[j]:indptr[j+1]`` of
``indices`` (row ids) and ``data``.  In LSI the columns are *documents*:
fold-in extracts document columns, and appending new documents (the ``D``
block of Eq. 10) is a cheap column-wise concatenation in this format.
It is also the layout SVDPACKC's ``las2`` reads (Harwell–Boeing).

A matrix is assembled once, from ``(row, col, value)`` triples
(:meth:`CSCMatrix.from_triples`) or from a dense array
(:func:`repro.sparse.build.from_dense`); the products are the kernels
of :mod:`repro.sparse.ops`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, SparseFormatError
from repro.sparse.ops import csc_matmat, csc_matvec, csc_rmatvec

__all__ = ["CSCMatrix", "hstack_csc"]


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

    @classmethod
    def from_triples(
        cls,
        shape: tuple[int, int],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "CSCMatrix":
        """Assemble from ``(row, col, value)`` triples.

        Repeated coordinates are summed in the order given — the
        semantics of accumulating term counts — and rows come out sorted
        within each column.
        """
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ShapeError(f"negative dimensions in shape {shape}")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float64).ravel()
        if not (rows.shape == cols.shape == values.shape):
            raise SparseFormatError(
                f"rows/cols/values lengths differ: {rows.size}/{cols.size}/{values.size}"
            )
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise SparseFormatError("row index out of bounds")
            if cols.min() < 0 or cols.max() >= n:
                raise SparseFormatError("column index out of bounds")
            # One stable column-major sort keeps duplicates in input order,
            # then each run of one coordinate is summed.
            order = np.lexsort((rows, cols))
            rows, cols, values = rows[order], cols[order], values[order]
            first = np.ones(rows.size, dtype=bool)
            first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(first)
            rows, cols = rows[starts], cols[starts]
            values = np.add.reduceat(values, starts)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return cls((m, n), indptr, rows, values)

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
        return csc_matvec(self, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ y`` — a gather, since rows of Aᵀ are our columns."""
        return csc_rmatvec(self, y)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Compute ``A @ X`` for dense ``X``."""
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
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.indices, self.expanded_cols()] = self.data
        return out


def hstack_csc(blocks) -> CSCMatrix:
    """Concatenate CSC matrices side by side: ``[A | B | ...]``.

    This is the sparse analogue of appending new document columns — the
    ``D`` block of the SVD-updating step (Eq. 10 of the paper).
    """
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("hstack_csc needs at least one block")
    m = blocks[0].shape[0]
    for b in blocks:
        if b.shape[0] != m:
            raise ShapeError(
                f"hstack_csc row mismatch: {b.shape[0]} != {m}"
            )
    n_total = sum(b.shape[1] for b in blocks)
    indptr = np.zeros(n_total + 1, dtype=np.int64)
    pos, offset = 1, 0
    for b in blocks:
        indptr[pos : pos + b.shape[1]] = b.indptr[1:] + offset
        pos += b.shape[1]
        offset += b.nnz
    indices = np.concatenate([b.indices for b in blocks])
    data = np.concatenate([b.data for b in blocks])
    return CSCMatrix((m, n_total), indptr, indices, data)
