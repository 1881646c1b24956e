"""Symmetric tridiagonal eigensolver (the inner solve of Lanczos).

Each Lanczos convergence check reduces the Gram operator to a small
symmetric tridiagonal matrix ``T_j`` (``j`` the step count, a few hundred
at most) whose eigenpairs are the Ritz approximations.  SVDPACKC's
``las2`` hands that problem to a compiled EISPACK routine; here it is one
LAPACK call (``numpy.linalg.eigh`` on the assembled ``j × j`` matrix).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ShapeError

__all__ = ["tridiag_eigh"]


def tridiag_eigh(
    diag: np.ndarray, offdiag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric tridiagonal matrix.

    Parameters
    ----------
    diag:
        Main diagonal, length ``n``.
    offdiag:
        Sub/super-diagonal, length ``n - 1`` (or ``n`` with a trailing
        ignored element, as produced by in-place Lanczos buffers).

    Returns
    -------
    (w, Z):
        ``w`` — eigenvalues in ascending order, shape ``(n,)``.
        ``Z`` — orthonormal eigenvectors as columns, shape ``(n, n)``,
        with ``T @ Z[:, i] == w[i] * Z[:, i]``.
    """
    d = np.asarray(diag, dtype=np.float64).ravel()
    n = d.size
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    e = np.asarray(offdiag, dtype=np.float64).ravel()
    if e.size not in (n - 1, n):
        raise ShapeError(
            f"offdiag must have length n-1={n - 1} (or n), got {e.size}"
        )
    # eigh reads one triangle only: the diagonal and the subdiagonal.
    T = np.diag(d)
    T[np.arange(1, n), np.arange(n - 1)] = e[: n - 1]
    try:
        return np.linalg.eigh(T, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"tridiagonal eigensolve of order {n} did not converge ({exc})"
        ) from exc
