"""Coordinate (COO) sparse format — the assembly format.

A COO matrix is three parallel arrays ``(row, col, data)``.  It is the
natural target for incremental construction (term counting emits triples)
and the pivot for conversions: both compressed formats are produced by a
single stable sort of the triples.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ShapeError, SparseFormatError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sparse.csc import CSCMatrix
    from repro.sparse.csr import CSRMatrix

__all__ = ["COOMatrix"]


class COOMatrix:
    """Immutable coordinate-format sparse matrix.

    Parameters
    ----------
    shape:
        ``(m, n)`` matrix dimensions.
    row, col:
        Integer arrays of equal length holding the coordinates of each
        stored entry.
    data:
        Float array of stored values, parallel to ``row``/``col``.
    sum_duplicates:
        When ``True`` (default) repeated coordinates are merged by summing
        their values — the semantics of accumulating term counts.
    """

    __slots__ = ("shape", "row", "col", "data")

    def __init__(
        self,
        shape: tuple[int, int],
        row: np.ndarray,
        col: np.ndarray,
        data: np.ndarray,
        *,
        sum_duplicates: bool = True,
    ):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ShapeError(f"negative dimensions in shape {shape}")
        row = np.asarray(row, dtype=np.int64).ravel()
        col = np.asarray(col, dtype=np.int64).ravel()
        data = np.asarray(data, dtype=np.float64).ravel()
        if not (row.shape == col.shape == data.shape):
            raise SparseFormatError(
                f"row/col/data lengths differ: {row.size}/{col.size}/{data.size}"
            )
        if row.size:
            if row.min(initial=0) < 0 or (row.size and row.max() >= m):
                raise SparseFormatError("row index out of bounds")
            if col.min(initial=0) < 0 or (col.size and col.max() >= n):
                raise SparseFormatError("column index out of bounds")
        if sum_duplicates and row.size:
            row, col, data = _merge_duplicates(m, n, row, col, data)
        object.__setattr__(self, "shape", (m, n))
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):  # immutability
        raise AttributeError("COOMatrix is immutable")

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates already merged)."""
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``float64`` array."""
        out = np.zeros(self.shape, dtype=np.float64)
        # Duplicates were merged at construction, so plain assignment after
        # an np.add.at would be equivalent; np.add.at keeps this correct even
        # for subclasses that skip merging.
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def to_csr(self) -> "CSRMatrix":
        """Convert to compressed sparse row format (stable row-major sort)."""
        from repro.sparse.csr import CSRMatrix

        m, n = self.shape
        order = np.lexsort((self.col, self.row))
        rows = self.row[order]
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        return CSRMatrix(self.shape, indptr, self.col[order], self.data[order])

    def to_csc(self) -> "CSCMatrix":
        """Convert to compressed sparse column format."""
        from repro.sparse.csc import CSCMatrix

        m, n = self.shape
        order = np.lexsort((self.row, self.col))
        cols = self.col[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
        return CSCMatrix(self.shape, indptr, self.row[order], self.data[order])


def _merge_duplicates(m, n, row, col, data):
    """Sum values that share a coordinate; returns row-major-sorted triples."""
    key = row * n + col
    order = np.argsort(key, kind="stable")
    key = key[order]
    data = data[order]
    boundary = np.empty(key.size, dtype=bool)
    boundary[0] = True
    np.not_equal(key[1:], key[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    merged = np.add.reduceat(data, starts)
    ukey = key[starts]
    return ukey // n, ukey % n, merged
