"""Orthogonality diagnostics (paper §4.3).

Folding-in appends arbitrary projected vectors to the singular-vector
matrices, corrupting their orthogonality; the paper proposes monitoring
``‖ÛᵀÛ − I‖₂`` and ``‖V̂ᵀV̂ − I‖₂`` as distortion measures.  These helpers
compute that loss (via from-scratch power iteration — the matrices involved
are small ``k×k`` Grams).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.util.rng import ensure_rng

__all__ = ["spectral_norm", "orthogonality_loss"]


def spectral_norm(
    a: np.ndarray, *, tol: float = 1e-12, max_iter: int = 500, seed=0
) -> float:
    """2-norm of a dense matrix by power iteration on ``AᵀA``.

    Converges fast for the well-separated spectra these diagnostics see;
    the iteration cap makes the worst case (a degenerate top eigenvalue)
    return the current — already accurate to ~sqrt(tol) — estimate.
    """
    A = np.asarray(a, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"spectral_norm expects a matrix, got ndim={A.ndim}")
    m, n = A.shape
    if m == 0 or n == 0:
        return 0.0
    rng = ensure_rng(seed)
    x = rng.standard_normal(n)
    x /= np.sqrt(np.dot(x, x))
    prev = 0.0
    for _ in range(max_iter):
        y = A @ x
        x = A.T @ y
        norm = np.sqrt(np.dot(x, x))
        if norm == 0.0:
            return 0.0
        x /= norm
        est = np.sqrt(norm)
        if abs(est - prev) <= tol * max(est, 1.0):
            return float(est)
        prev = est
    return float(prev)


def orthogonality_loss(q: np.ndarray) -> float:
    """``‖QᵀQ − I‖₂`` — zero iff the columns of ``Q`` are orthonormal.

    This is the paper's distortion measure for folded-in axes: SVD-updating
    keeps it at rounding level while folding-in lets it grow with every
    appended document or term.
    """
    Q = np.asarray(q, dtype=np.float64)
    if Q.ndim != 2:
        raise ShapeError(f"orthogonality_loss expects a matrix, got ndim={Q.ndim}")
    gram = Q.T @ Q
    gram[np.diag_indices_from(gram)] -= 1.0
    return spectral_norm(gram)
