"""The one cosine-scoring kernel every query path routes through.

Single-query scoring (``repro.core.similarity.cosine_similarities``),
batched scoring (``EpochSnapshot.score_batch``) and the sharded serving
path all used to carry their own copy of the same norm/mask/divide
arithmetic.  This module is the single implementation:
a dense GEMM (GEMV for the q=1 case) against the document coordinate
rows, followed by one vectorized normalization with zero-norm masking.

The kernel is deliberately pure NumPy with no model imports, so every
layer — including :mod:`repro.core` — can depend on it without cycles.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.metrics import registry

__all__ = ["row_norms", "cosine_scores"]


def row_norms(M: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of ``M`` — the cached denominator.

    Uses ``sum(M*M, axis=1)`` rather than an einsum reduction so the
    values are bit-identical to the historical per-query computation
    (pairwise summation), keeping cached-norm rankings byte-identical.
    """
    return np.sqrt(np.sum(M * M, axis=1))


def cosine_scores(
    M: np.ndarray,
    Q: np.ndarray,
    *,
    norms: np.ndarray | None = None,
) -> np.ndarray:
    """Cosine of every row of ``Q`` with every row of ``M``: ``(q, n)``.

    Parameters
    ----------
    M:
        ``(n, k)`` document coordinates (already in the comparison space,
        i.e. scaled by ``Σ_k`` for the default mode).
    Q:
        ``(q, k)`` query coordinates, or a single ``(k,)`` vector.
    norms:
        Precomputed ``row_norms(M)``; recomputed when omitted.  Passing
        the cached norms is what makes the serving fast path fast.

    Rows of ``M`` (or of ``Q``) with zero norm score 0 against
    everything, matching the historical per-query implementation.  The
    q=1 case is computed with a GEMV on the same coordinates, so the
    single-query path is literally the one-row case of the batch path.
    """
    Q2 = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    if Q2.shape[0] == 1:
        # BLAS ddot, exactly as the historical single-query path, so the
        # q=1 scores are bit-identical to the seed implementation.
        qn = np.array([np.sqrt(np.dot(Q2[0], Q2[0]))])
    else:
        qn = row_norms(Q2)
    if norms is None:
        norms = row_norms(M)
    t0 = time.perf_counter()
    if Q2.shape[0] == 1:
        raw = (M @ Q2[0])[None, :]
    else:
        raw = Q2 @ M.T
    registry.observe("serving.gemm_seconds", time.perf_counter() - t0)
    denom = qn[:, None] * norms[None, :]
    if (qn > 0).all() and (norms > 0).all():
        # Common case (no zero-norm rows): plain broadcast division.
        # Each element is the same IEEE divide the masked path performs,
        # so the scores are bit-identical — but without the three (q, n)
        # temporaries boolean fancy-indexing allocates, which dominate
        # the batched call once the GEMM itself is fast.
        return raw / denom
    out = np.zeros_like(raw)
    ok = denom > 0
    out[ok] = raw[ok] / denom[ok]
    return out
