"""Orthogonality diagnostics (paper §4.3).

Folding-in appends arbitrary projected vectors to the singular-vector
matrices, corrupting their orthogonality; the paper proposes monitoring
``‖ÛᵀÛ − I‖₂`` and ``‖V̂ᵀV̂ − I‖₂`` as distortion measures.  The matrix
inside the norm is a small symmetric ``k × k`` Gram, so its 2-norm is its
largest eigenvalue magnitude: one LAPACK call (``numpy.linalg.eigvalsh``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError

__all__ = ["orthogonality_loss"]


def orthogonality_loss(q: np.ndarray) -> float:
    """``‖QᵀQ − I‖₂`` — zero iff the columns of ``Q`` are orthonormal.

    This is the paper's distortion measure for folded-in axes: SVD-updating
    keeps it at rounding level while folding-in lets it grow with every
    appended document or term.
    """
    Q = np.asarray(q, dtype=np.float64)
    if Q.ndim != 2:
        raise ShapeError(f"orthogonality_loss expects a matrix, got ndim={Q.ndim}")
    if Q.shape[1] == 0:
        return 0.0
    gram = Q.T @ Q
    gram[np.diag_indices_from(gram)] -= 1.0
    if not np.isfinite(gram).all():
        return float("nan")  # a non-finite factor has no defined loss
    return float(np.abs(np.linalg.eigvalsh(gram)).max())
