"""Symmetric tridiagonal eigensolver (implicit-shift QL, "tql2").

This is the inner solve of the Lanczos SVD: each outer iteration reduces
the Gram operator to a small symmetric tridiagonal matrix whose eigenpairs
are the Ritz approximations.  The algorithm is the classic EISPACK
implicit-shift QL iteration with Wilkinson shifts, unconditionally
convergent in practice (a safeguard iteration cap raises
:class:`~repro.errors.ConvergenceError`).

One recurrence on the diagonals serves two accumulations.
:func:`tridiag_eigh` rotates the whole eigenvector matrix, O(n²) per
eigenvalue (EISPACK ``tql2``).  :func:`tridiag_eigh_bottom` rotates only
its bottom row, two scalars per rotation and O(n) per eigenvalue — what
SVDPACKC's ``las2`` runs (``imtqlb``) for the Lanczos convergence test,
whose residual bound ``|β_j · z_{j,i}|`` reads nothing else.  The
arithmetic on the diagonals and on the bottom row is the same in both,
so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, ShapeError

__all__ = ["tridiag_eigh", "tridiag_eigh_bottom"]

_MAX_QL_SWEEPS = 50
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


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
    return _implicit_ql(diag, offdiag, vectors=True)


def tridiag_eigh_bottom(
    diag: np.ndarray, offdiag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and the bottom row of the eigenvector matrix.

    Same inputs as :func:`tridiag_eigh`; returns ``(w, Z[-1])`` of that
    call, bit for bit, without forming ``Z``.
    """
    return _implicit_ql(diag, offdiag, vectors=False)


def _implicit_ql(diag, offdiag, *, vectors: bool):
    d = np.array(diag, dtype=np.float64, copy=True).ravel()
    n = d.size
    if n == 0:
        return d, np.empty((0, 0) if vectors else 0)
    e_in = np.asarray(offdiag, dtype=np.float64).ravel()
    if e_in.size not in (n - 1, n):
        raise ShapeError(
            f"offdiag must have length n-1={n - 1} (or n), got {e_in.size}"
        )
    # What the rotations accumulate into, one row per eigenvector: the
    # identity (row i ends as eigenvector i), or only its last column
    # (entry i ends as the bottom component of eigenvector i).
    z = np.eye(n) if vectors else [0.0] * (n - 1) + [1.0]
    # Working copy with the EISPACK convention: e[0] unused after the shift.
    e = np.zeros(n)
    e[: n - 1] = e_in[: n - 1]

    # Wholly subnormal matrices stall the QL sweep: the rotation
    # products underflow, so e never shrinks and neither split test can
    # fire.  Upscale by an exact power of two into the normal range and
    # scale the eigenvalues back at the end — ldexp is lossless in both
    # directions, so normal-range inputs are untouched bit-for-bit.
    scale = max(np.max(np.abs(d)), np.max(np.abs(e)))
    scale_exp = 0
    if 0.0 < scale < _TINY:
        scale_exp = int(np.frexp(scale)[1])  # scale = frac * 2**scale_exp
        d = np.ldexp(d, -scale_exp)
        e = np.ldexp(e, -scale_exp)

    # Whole-matrix scale for the split test (EISPACK's ``tst1``).  The
    # purely local criterion |e[m]| <= eps·(|d[m]|+|d[m+1]|) never fires
    # when a whole block is tiny (e.g. zero diagonal with subnormal
    # couplings): the rotations underflow to no-ops and the sweep
    # stalls.  Splitting additionally on |e[m]| negligible against the
    # largest |d[l]|+|e[l]| anywhere in the matrix is backward stable —
    # it perturbs T by at most eps·‖T‖ — and unsticks those blocks.
    # (Computed globally up front, not as a running max: a stalling
    # block can precede the entry that sets the matrix scale.)
    tst1 = float(np.max(np.abs(d) + np.abs(e)))
    # The recurrence is scalar and sequential: run it on Python floats
    # (the same IEEE doubles, without a numpy scalar per operation).
    d = d.tolist()
    e = e.tolist()
    hypot = np.hypot  # not math.hypot: CPython's own algorithm, other bits
    for l in range(n):
        for sweep in range(_MAX_QL_SWEEPS + 1):
            # Find a small off-diagonal element to split the problem.
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= _EPS * dd or tst1 + abs(e[m]) == tst1:
                    break
                m += 1
            if m == l:
                break
            if sweep == _MAX_QL_SWEEPS:
                raise ConvergenceError(
                    f"tql2 failed to converge for eigenvalue {l}",
                    iterations=sweep,
                    achieved=l,
                )
            # Wilkinson shift from the 2x2 leading block.
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = float(hypot(g, 1.0))
            g = d[m] - d[l] + e[l] / (g + (r if g >= 0 else -r))
            s, c = 1.0, 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = float(hypot(f, g))
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # Accumulate the rotation: two rows of the eigenvector
                # matrix, or two scalars of its bottom row.
                zi, zi1 = z[i], z[i + 1]
                z[i + 1], z[i] = s * zi + c * zi1, c * zi - s * zi1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    # Sort ascending, reorder eigenvectors to match.
    d = np.asarray(d)
    order = np.argsort(d, kind="stable")
    w = d[order]
    if scale_exp:
        w = np.ldexp(w, scale_exp)
    return w, np.asarray(z)[order].T
