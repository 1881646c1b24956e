"""Incremental sparse-matrix assembly.

Term counting produces a stream of ``(term_id, doc_id, count)`` triples;
:class:`MatrixBuilder` buffers them in growable Python lists (amortized O(1)
append) and converts to COO/CSC once at the end — the standard
assemble-then-compress pattern.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix

__all__ = ["MatrixBuilder", "from_dense"]


class MatrixBuilder:
    """Accumulates (row, col, value) triples and emits sparse matrices.

    Duplicate coordinates are summed on conversion, so callers can ``add``
    the same cell repeatedly (e.g. once per token occurrence).
    """

    def __init__(self, shape: tuple[int, int]):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ShapeError(f"negative dimensions in shape {shape}")
        self.shape = (m, n)
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    def __len__(self) -> int:
        return len(self._vals)

    def add(self, i: int, j: int, value: float = 1.0) -> None:
        """Add ``value`` to cell ``(i, j)``."""
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise ShapeError(f"coordinate ({i}, {j}) outside shape {self.shape}")
        self._rows.append(i)
        self._cols.append(j)
        self._vals.append(value)

    def add_many(
        self,
        rows: Iterable[int],
        cols: Iterable[int],
        values: Iterable[float] | None = None,
    ) -> None:
        """Bulk-add triples; ``values`` defaults to all ones."""
        rows = list(rows)
        cols = list(cols)
        if values is None:
            values = [1.0] * len(rows)
        else:
            values = list(values)
        if not (len(rows) == len(cols) == len(values)):
            raise ShapeError("rows/cols/values length mismatch in add_many")
        self._rows.extend(rows)
        self._cols.extend(cols)
        self._vals.extend(values)

    def add_column(self, j: int, rows: Sequence[int], values: Sequence[float]) -> None:
        """Add a whole column's entries at once (document ingestion)."""
        self.add_many(rows, [j] * len(rows), values)

    def to_coo(self) -> COOMatrix:
        """Emit the accumulated triples as a COO matrix (duplicates summed)."""
        return COOMatrix(
            self.shape,
            np.asarray(self._rows, dtype=np.int64),
            np.asarray(self._cols, dtype=np.int64),
            np.asarray(self._vals, dtype=np.float64),
        )

    def to_csc(self) -> CSCMatrix:
        """Emit as CSC (via COO)."""
        return self.to_coo().to_csc()


def from_dense(a: np.ndarray, *, tol: float = 0.0) -> COOMatrix:
    """Sparsify a dense array, keeping entries with ``|a_ij| > tol``."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"from_dense expects 2-D input, got ndim={arr.ndim}")
    row, col = np.nonzero(np.abs(arr) > tol)
    return COOMatrix(arr.shape, row, col, arr[row, col], sum_duplicates=False)
