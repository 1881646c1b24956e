"""Unified truncated-SVD front-end and the one small-dense SVD.

:func:`dense_svd` is LAPACK's divide-and-conquer SVD (``gesdd``, through
``numpy.linalg``): the solver for every small dense matrix on the build
and write paths — the cores of the SVD-updating phases (Eq. 10-12), the
fast update's sketch bases, and the ``"dense"`` and ``"gkl"`` backends
below.

:func:`truncated_svd` is the single entry point the LSI layers call.  It
selects among three backends:

``"dense"``
    :func:`dense_svd` of the densified matrix — exact, used for small
    problems.
``"lanczos"``
    Gram-side symmetric Lanczos (:mod:`repro.linalg.lanczos`) — the
    SVDPACKC-style sparse path the paper describes.
``"gkl"``
    Golub-Kahan-Lanczos bidiagonalization followed by :func:`dense_svd`
    of the small bidiagonal — the non-squaring alternative.
``"auto"``
    Dense below :data:`DENSE_CUTOFF` on the small side (or when ``k`` is a
    large fraction of it), Lanczos otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.linalg.bidiag import bidiagonal_dense, golub_kahan_bidiag
from repro.linalg.counters import OperatorCounter
from repro.linalg.lanczos import LanczosStats, lanczos_svd
from repro.obs.bridge import record_lanczos_stats, record_operator

__all__ = ["SVDResult", "dense_svd", "truncated_svd", "DENSE_CUTOFF"]

#: Small-side size below which the dense backend is used by "auto".
DENSE_CUTOFF = 220


@dataclass
class SVDResult:
    """A truncated singular value decomposition ``A ≈ U diag(s) Vᵀ``.

    Attributes
    ----------
    U:
        ``(m, k)`` left singular vectors (term vectors in LSI).
    s:
        ``(k,)`` singular values, descending.
    V:
        ``(n, k)`` right singular vectors (document vectors in LSI).
    stats:
        Lanczos instrumentation when an iterative backend produced this
        result, else ``None``.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    stats: Optional[LanczosStats] = None
    method: str = "dense"


def dense_svd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``A = U @ diag(s) @ Vᵀ`` of a dense ``(m, n)`` matrix.

    Returns ``U (m, r)``, ``s (r,)`` descending and ``V (n, r)`` with
    ``r = min(m, n)``; ``U`` and ``V`` have orthonormal columns even for
    null singular values.  Raises :class:`~repro.errors.ShapeError` on a
    non-matrix or non-finite input and
    :class:`~repro.errors.ConvergenceError` if LAPACK does not converge.
    """
    A = np.asarray(a, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"dense_svd expects a matrix, got ndim={A.ndim}")
    m, n = A.shape
    r = min(m, n)
    if r == 0:
        return np.zeros((m, 0)), np.zeros(0), np.zeros((n, 0))
    if not np.isfinite(A).all():
        raise ShapeError("dense_svd input contains non-finite values")
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"dense SVD of a {m} × {n} matrix did not converge ({exc})"
        ) from exc
    return U, s, Vt.T


def _densify(a) -> np.ndarray:
    if isinstance(a, np.ndarray):
        return a
    if hasattr(a, "to_dense"):
        return a.to_dense()
    return np.asarray(a, dtype=np.float64)


def truncated_svd(
    a,
    k: int,
    *,
    method: str = "auto",
    tol: float = 1e-10,
    max_iter: int | None = None,
    seed=0,
) -> SVDResult:
    """Compute the ``k`` largest singular triplets of ``a``.

    See module docstring for backend semantics.  ``a`` may be dense or any
    :mod:`repro.sparse` format.
    """
    m, n = a.shape
    dim = min(m, n)
    if not 1 <= k <= dim:
        raise ShapeError(f"k={k} must be in [1, min(m, n)={dim}]")

    if method == "auto":
        method = "dense" if (dim <= DENSE_CUTOFF or k > 0.5 * dim) else "lanczos"

    if method == "dense":
        U, s, V = dense_svd(_densify(a))
        return SVDResult(U[:, :k].copy(), s[:k].copy(), V[:, :k].copy(), method="dense")

    if method == "lanczos":
        # Count every A·x / Aᵀ·y the solver issues, then publish the
        # measured matvec/flop totals as registry gauges so the §4 cost
        # model (Table 7) is queryable from `python -m repro stats`.
        op = OperatorCounter(a)
        U, s, V, stats = lanczos_svd(
            op, k, tol=tol, max_iter=max_iter, seed=seed
        )
        record_lanczos_stats(stats)
        record_operator(op)
        return SVDResult(U, s, V, stats=stats, method="lanczos")

    if method == "gkl":
        steps = min(dim, max(2 * k + 16, 32) if max_iter is None else max_iter)
        Ub, Vb, alphas, betas = golub_kahan_bidiag(a, steps, seed=seed)
        B = bidiagonal_dense(alphas, betas)
        P, s, Q = dense_svd(B)
        kk = min(k, s.size)
        return SVDResult(
            Ub @ P[:, :kk], s[:kk].copy(), Vb @ Q[:, :kk], method="gkl"
        )

    raise ValueError(f"unknown SVD method {method!r}")
