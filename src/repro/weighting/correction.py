"""Weight-correction blocks for SVD-updating (Eq. 12).

When the term weighting of an already-decomposed matrix changes (global
weights drift as documents are added), the paper folds the change into the
model as a rank-j update::

    W = A_k + Y_j Z_jᵀ

where ``Y_j`` (m × j) holds rows of zeros or rows of the j-th order
identity — it *selects* the j re-weighted term rows — and ``Z_j`` (n × j)
holds "the actual differences between old and new weights for each of the
j terms".  This module assembles those blocks from an old and a new
weighted matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csc import CSCMatrix

__all__ = ["weight_correction_blocks"]


def weight_correction_blocks(
    old: CSCMatrix,
    new: CSCMatrix,
    term_ids: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Build ``(Y_j, Z_j)`` such that ``new = old + Y_j Z_jᵀ`` on the rows
    listed in ``term_ids`` (all other rows must be identical).

    Parameters
    ----------
    old, new:
        The previously-decomposed weighted matrix and the re-weighted one,
        same shape.
    term_ids:
        The ``j`` term rows whose weights changed.

    Returns
    -------
    (Y, Z):
        ``Y`` is ``(m, j)`` with ``Y[t_l, l] = 1``; ``Z`` is ``(n, j)``
        with column ``l`` holding ``new_row(t_l) - old_row(t_l)``.
    """
    if old.shape != new.shape:
        raise ShapeError(
            f"old/new shapes differ: {old.shape} vs {new.shape}"
        )
    m, n = old.shape
    term_ids = np.asarray(term_ids, dtype=np.int64).ravel()
    j = term_ids.size
    if j == 0:
        return np.zeros((m, 0)), np.zeros((n, 0))
    if term_ids.min() < 0 or term_ids.max() >= m:
        raise ShapeError("term id out of range in weight correction")
    if np.unique(term_ids).size != j:
        raise ShapeError("term_ids must be distinct")

    Y = np.zeros((m, j))
    Y[term_ids, np.arange(j)] = 1.0
    # Column l of Z is row t_l of new minus row t_l of old: one masked
    # pass over each matrix's stored entries, through the term -> l map.
    slot = np.full(m, -1, dtype=np.int64)
    slot[term_ids] = np.arange(j)
    Z = np.zeros((n, j))
    l, cols, vals = _picked_rows(new, slot)
    Z[cols, l] = vals
    l, cols, vals = _picked_rows(old, slot)
    Z[cols, l] -= vals
    return Y, Z


def _picked_rows(a: CSCMatrix, slot: np.ndarray):
    """``(slot, column, value)`` of each stored entry of ``a`` whose row
    has a slot (``slot[row] >= 0``)."""
    l = slot[a.indices]
    hit = l >= 0
    return l[hit], a.expanded_cols()[hit], a.data[hit]
