"""Vectorized sparse kernels.

All kernels are pure NumPy with no Python-level iteration over nonzeros.
Two segment-reduction strategies are used:

* **bincount scatter** for matrix-vector products: exact per-bin summation
  in a single C loop, the workhorse inside Lanczos iterations.
* **cumsum differencing** for matrix-matrix products: contributions for a
  chunk of right-hand-side columns are accumulated with one ``cumsum`` along
  the nnz axis and differenced at the row boundaries.  Chunking bounds the
  temporary at ``nnz × chunk`` floats, per the memory guidance of the
  scientific-Python optimization notes (avoid large copies; stream in
  cache-sized blocks).

Shapes are validated at the edges; kernels assume validated inputs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = [
    "csr_matvec",
    "csr_rmatvec",
    "csr_matmat",
    "csc_matvec",
    "csc_rmatvec",
    "csc_matmat",
    "hstack_csc",
]

#: Number of dense right-hand-side columns processed per chunk in matmat
#: kernels.  The cumsum temporary is ``nnz × chunk`` float64s: at 10⁶
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


# --------------------------------------------------------------------- #
# CSR kernels
# --------------------------------------------------------------------- #
def csr_matvec(a, x: np.ndarray) -> np.ndarray:
    """``y = A @ x`` for CSR ``A``: gather then per-row scatter-add."""
    m, n = a.shape
    x = _as_vec(x, n, "x")
    if a.nnz == 0:
        return np.zeros(m, dtype=np.float64)
    prod = a.data * x[a.indices]
    return np.bincount(a.expanded_rows(), weights=prod, minlength=m)


def csr_rmatvec(a, y: np.ndarray) -> np.ndarray:
    """``x = Aᵀ @ y`` for CSR ``A``: scatter into column bins."""
    m, n = a.shape
    y = _as_vec(y, m, "y")
    if a.nnz == 0:
        return np.zeros(n, dtype=np.float64)
    prod = a.data * y[a.expanded_rows()]
    return np.bincount(a.indices, weights=prod, minlength=n)


def _segment_sums(contrib: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Sum contiguous nnz segments of ``contrib`` delimited by ``indptr``.

    Handles empty segments correctly (they yield exact zeros), unlike
    ``np.add.reduceat`` whose repeated-offset semantics differ.
    """
    cum = np.zeros((contrib.shape[0] + 1,) + contrib.shape[1:], dtype=np.float64)
    np.cumsum(contrib, axis=0, out=cum[1:])
    return cum[indptr[1:]] - cum[indptr[:-1]]


def csr_matmat(a, X: np.ndarray, chunk: int = MATMAT_CHUNK) -> np.ndarray:
    """``Y = A @ X`` for CSR ``A`` and dense ``X``, chunked over X's columns."""
    m, n = a.shape
    X = _as_mat(X, n, "X")
    k = X.shape[1]
    out = np.empty((m, k), dtype=np.float64)
    if a.nnz == 0:
        out.fill(0.0)
        return out
    gathered = X[a.indices]  # (nnz, k) gather once when small enough
    if k <= chunk:
        contrib = a.data[:, None] * gathered
        return _segment_sums(contrib, a.indptr)
    for lo in range(0, k, chunk):
        hi = min(lo + chunk, k)
        contrib = a.data[:, None] * gathered[:, lo:hi]
        out[:, lo:hi] = _segment_sums(contrib, a.indptr)
    return out


# --------------------------------------------------------------------- #
# CSC kernels
# --------------------------------------------------------------------- #
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


# --------------------------------------------------------------------- #
# stacking
# --------------------------------------------------------------------- #
def hstack_csc(blocks) -> "CSCMatrix":
    """Concatenate CSC matrices side by side: ``[A | B | ...]``.

    This is the sparse analogue of appending new document columns — the
    ``D`` block of the SVD-updating step (Eq. 10 of the paper).
    """
    from repro.sparse.csc import CSCMatrix

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
    indices = np.concatenate([b.indices for b in blocks]) if blocks else np.empty(0)
    data = np.concatenate([b.data for b in blocks])
    return CSCMatrix((m, n_total), indptr, indices, data)
