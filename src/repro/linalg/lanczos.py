"""Single-vector Lanczos truncated SVD (the SVDPACKC workhorse).

The paper computed ``A_200`` of a 90,000 × 70,000 TREC matrix "by a
single-vector Lanczos algorithm [SVDPACKC]" and models its cost as::

    I × cost(GᵀG x) + trp × cost(G x)

This module implements that algorithm: symmetric Lanczos on the Gram
operator of the *smaller* dimension (``AᵀA`` when ``m ≥ n``, ``AAᵀ``
otherwise) with **full reorthogonalization** — the variant SVDPACKC calls
``las2`` uses selective reorthogonalization; full reorthogonalization costs
more per iteration but is simpler and loses no accuracy, the right
trade-off at laptop scale.  Converged Ritz values are accepted by the
classical residual bound ``|β_j · z_{j,i}|``, which reads the Ritz values
and the bottom row of their vectors: each convergence check is one LAPACK
eigensolve of the ``j × j`` tridiagonal (:func:`~repro.linalg.tridiag.
tridiag_eigh`), and the check that passes supplies the Ritz vectors, so
nothing is solved again after the loop.

The returned :class:`LanczosStats` exposes the measured ``I`` and triplet
extraction counts so benchmarks can check the cost model empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError, ShapeError
from repro.linalg.tridiag import tridiag_eigh
from repro.util.rng import ensure_rng

__all__ = ["LanczosStats", "lanczos_svd"]

#: β at or below this, relative to the θ = σ² scale, means the Krylov
#: space is exhausted: the coupling is dropped and the iteration restarts.
_EXHAUSTED = 1e-14


@dataclass
class LanczosStats:
    """Instrumentation from one Lanczos SVD run.

    Attributes
    ----------
    iterations:
        Number of Lanczos steps ``I`` (Gram-operator applications).
    gram_dim:
        Dimension the Gram operator acted on (``min(m, n)``).
    converged:
        Number of singular triplets that met the residual tolerance.
    restarts:
        Times an invariant subspace was hit and the iteration restarted
        with a fresh random direction.
    matvecs:
        Total ``A x`` / ``Aᵀ y`` product count, including the ``trp``
        products used to extract the singular vectors of the long side.
    """

    iterations: int = 0
    gram_dim: int = 0
    converged: int = 0
    restarts: int = 0
    matvecs: int = 0


def _matvec(a, x):
    return a.matvec(x) if hasattr(a, "matvec") else np.asarray(a) @ x


def _rmatvec(a, y):
    return a.rmatvec(y) if hasattr(a, "rmatvec") else np.asarray(a).T @ y


def _fresh_direction(rng, basis: np.ndarray) -> np.ndarray:
    """A random unit vector orthogonal to the orthonormal rows of ``basis``."""
    while True:
        w = rng.standard_normal(basis.shape[1])
        drawn = np.sqrt(np.dot(w, w))
        # Two Gram-Schmidt passes: one leaves O(eps) of the basis behind.
        w -= basis.T @ (basis @ w)
        w -= basis.T @ (basis @ w)
        norm = np.sqrt(np.dot(w, w))
        # A negligible remainder is rounding noise, not a direction: redraw.
        if norm > 1e-8 * drawn:
            return w / norm


def lanczos_svd(
    a,
    k: int,
    *,
    tol: float = 1e-10,
    max_iter: int | None = None,
    reorth: str = "full",
    seed=0,
    check_every: int = 8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, LanczosStats]:
    """Compute the ``k`` largest singular triplets of ``a``.

    Parameters
    ----------
    a:
        Sparse matrix (any :mod:`repro.sparse` format), dense ndarray, or
        any object exposing ``shape`` plus ``matvec``/``rmatvec``.
    k:
        Number of singular triplets to compute, ``1 ≤ k ≤ min(m, n)``.
    tol:
        Relative Ritz-residual acceptance threshold.
    max_iter:
        Cap on Lanczos steps.  A cap reached with fewer than ``k``
        triplets inside ``tol`` raises
        :class:`~repro.errors.ConvergenceError` — unless it is the full
        Gram dimension, where the factorization is exact.  By default
        there is no cap short of that: the basis is allocated for
        ``max(4k+32, 64)`` steps and grows only if they do not suffice.
    reorth:
        ``"full"`` (default) re-orthogonalizes every new Lanczos vector
        against the whole basis twice; ``"none"`` runs classical three-term
        recurrence only (fast, loses orthogonality — exposed for the
        ablation benchmark).
    seed:
        Seed for the random start vector.
    check_every:
        Convergence is tested every this many steps.

    Returns
    -------
    (U, s, V, stats):
        ``U (m, k)``, ``s (k,)`` descending, ``V (n, k)``, and run stats.
    """
    if not hasattr(a, "shape"):
        a = np.asarray(a, dtype=np.float64)
    m, n = a.shape
    dim = min(m, n)
    if not 1 <= k <= dim:
        raise ShapeError(f"k={k} must be in [1, min(m, n)={dim}]")
    if reorth not in ("full", "none"):
        raise ValueError(f"unknown reorth policy {reorth!r}")
    # An explicit cap fixes the basis size and is an error to fall short
    # of; by default the basis starts at the size a well-separated
    # spectrum needs and grows on demand, up to the full Gram dimension.
    limit = dim if max_iter is None else min(max(max_iter, k), dim)
    capacity = min(limit, max(4 * k + 32, 64))

    stats = LanczosStats(gram_dim=dim)
    rng = ensure_rng(seed)
    small_is_cols = m >= n  # Gram operator is AᵀA acting on R^n

    def gram(x: np.ndarray) -> np.ndarray:
        stats.matvecs += 2
        if small_is_cols:
            return _rmatvec(a, _matvec(a, x))
        return _matvec(a, _rmatvec(a, x))

    # Lanczos basis Q (j × dim), tridiagonal (alphas, betas).
    Q = np.zeros((capacity, dim))
    alphas = np.zeros(limit)
    betas = np.zeros(limit)  # betas[j] links step j to j+1

    q = rng.standard_normal(dim)
    q /= np.sqrt(np.dot(q, q))
    Q[0] = q
    j = 0
    nconv = 0

    while True:
        w = gram(Q[j])
        alphas[j] = float(np.dot(Q[j], w))
        w -= alphas[j] * Q[j]
        if j > 0:
            w -= betas[j - 1] * Q[j - 1]
        if reorth == "full":
            # Two Gram-Schmidt passes against the whole basis.
            basis = Q[: j + 1]
            w -= basis.T @ (basis @ w)
            w -= basis.T @ (basis @ w)
        beta = np.sqrt(np.dot(w, w))
        j += 1
        stats.iterations = j
        # An invariant subspace (the Krylov space is exhausted) decouples
        # the tridiagonal here: its Ritz pairs are exact.
        exhausted = beta <= _EXHAUSTED * max(1.0, abs(alphas[:j]).max())
        betas[j - 1] = 0.0 if exhausted else beta

        if j >= k and (j % check_every == 0 or j == limit):
            # The residual bound |β_j · z_{j,i}| reads the Ritz values and
            # the bottom row of their vectors.
            theta, Z = tridiag_eigh(alphas[:j], betas[: j - 1])
            # At j == dim the factorization is exact whatever β rounds to.
            beta_last = betas[j - 1] if j < dim else 0.0
            resid = np.abs(beta_last * Z[-1, ::-1][:k])
            nconv = int(np.sum(resid <= tol * max(theta[-1], 1e-300)))
            if nconv >= k or j == limit:
                break

        if j == len(Q):
            Q = np.concatenate([Q, np.zeros((min(j, limit - j), dim))])
        if exhausted:
            # Restart with a fresh direction orthogonal to everything found.
            stats.restarts += 1
            Q[j] = _fresh_direction(rng, Q[:j])
        else:
            Q[j] = w / beta

    if nconv < k:
        raise ConvergenceError(
            f"Lanczos converged {nconv}/{k} triplets in {j} iterations "
            f"(max_iter={max_iter}); raise max_iter",
            iterations=j,
            achieved=nconv,
        )

    stats.converged = nconv
    # The passing check's Ritz pairs, descending.
    theta = theta[::-1]
    Z = Z[:, ::-1]
    theta_k = np.clip(theta[:k], 0.0, None)
    s = np.sqrt(theta_k)
    small_vecs = Q[:j].T @ Z[:, :k]  # (dim, k) singular vectors of small side
    # Normalize (full reorthogonalization keeps these near-orthonormal).
    small_vecs /= np.maximum(np.sqrt(np.sum(small_vecs**2, axis=0)), 1e-300)

    # Extract the long-side vectors: u_i = A v_i / σ_i (the paper's
    # "additional multiplication by G ... to extract the left singular
    # vector"), trp products in total.
    long_dim = m if small_is_cols else n
    long_vecs = np.zeros((long_dim, k))
    # A Ritz value no larger than a dropped coupling is not a singular
    # value: below the square root of that threshold σ is zero.
    null_below = np.sqrt(_EXHAUSTED) * max(s[0], 1.0)
    for i in range(k):
        if s[i] > null_below:
            stats.matvecs += 1
            if small_is_cols:
                long_vecs[:, i] = _matvec(a, small_vecs[:, i]) / s[i]
            else:
                long_vecs[:, i] = _rmatvec(a, small_vecs[:, i]) / s[i]
        else:
            s[i] = 0.0
            # Null singular value: any direction orthogonal to previous
            # long-side vectors is valid.
            long_vecs[:, i] = _fresh_direction(rng, long_vecs[:, :i].T)

    if small_is_cols:
        return long_vecs, s, small_vecs, stats
    return small_vecs, s, long_vecs, stats
