"""Compressed sparse row (CSR) format — the row-major compute format.

CSR stores a matrix as ``(indptr, indices, data)`` where row ``i`` occupies
the slice ``indptr[i]:indptr[i+1]`` of ``indices`` (column ids) and ``data``
(values).  In LSI the rows are *terms*: global term weights scale CSR rows
in O(nnz), and the Lanczos operator ``x ↦ A(Aᵀx)`` alternates CSR matvec and
CSR transposed matvec.

The kernels live in :mod:`repro.sparse.ops`; this class caches the expanded
per-nonzero row-index array the kernels need, computing it lazily once.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, SparseFormatError

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """Immutable CSR sparse matrix with vectorized linear-algebra hooks."""

    __slots__ = ("shape", "indptr", "indices", "data", "_row_cache")

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
        if indptr.size != m + 1:
            raise SparseFormatError(f"indptr must have length m+1={m + 1}, got {indptr.size}")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise SparseFormatError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if indices.size != data.size:
            raise SparseFormatError("indices and data must have equal length")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise SparseFormatError("column index out of bounds")
        object.__setattr__(self, "shape", (m, n))
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_row_cache", None)

    def __setattr__(self, name, value):
        raise AttributeError("CSRMatrix is immutable")

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    def expanded_rows(self) -> np.ndarray:
        """Per-nonzero row index (length nnz), cached after first use.

        This is the scatter target for the bincount-based matvec kernel; it
        costs one ``np.repeat`` and is reused across Lanczos iterations.
        """
        if self._row_cache is None:
            rows = np.repeat(
                np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
            )
            object.__setattr__(self, "_row_cache", rows)
        return self._row_cache

    # ------------------------------------------------------------------ #
    # linear algebra (delegates to the shared kernels)
    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a dense vector ``x``."""
        from repro.sparse.ops import csr_matvec

        return csr_matvec(self, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ y`` for a dense vector ``y``."""
        from repro.sparse.ops import csr_rmatvec

        return csr_rmatvec(self, y)

    def matmat(self, X: np.ndarray) -> np.ndarray:
        """Compute ``A @ X`` for a dense matrix ``X`` (chunked over columns)."""
        from repro.sparse.ops import csr_matmat

        return csr_matmat(self, X)

    def __matmul__(self, other):
        other = np.asarray(other, dtype=np.float64)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            return self.matmat(other)
        raise ShapeError("CSRMatrix @ operand must be 1-D or 2-D")

    # ------------------------------------------------------------------ #
    # row access and densification
    # ------------------------------------------------------------------ #
    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column ids, values)`` of row ``i`` as views."""
        if not 0 <= i < self.shape[0]:
            raise ShapeError(f"row {i} out of range for m={self.shape[0]}")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense float64 array."""
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.expanded_rows(), self.indices] = self.data
        return out
