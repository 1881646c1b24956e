"""The fp64 cosine kernels: the full-width reference and the row-local one.

:func:`cosine_scores` is the full ``(q, n)`` cosine matrix — a dense
GEMM (GEMV for the q=1 case) against the document coordinate rows,
followed by one vectorized normalization with zero-norm masking.  It is
what ``repro.core.similarity.cosine_similarities`` and
``EpochSnapshot.score_batch`` return: the score vector evaluation code
reads, and the reference every served ranking is held to.  A BLAS value
can depend on where a row sits and on how many queries ride along, in
the last bit.

:func:`row_cosines` scores chosen rows against one query with a
reduction that is local to each row, so its value is a pure function of
(row, query).  The ranked paths (:mod:`repro.serving.scan`,
:meth:`CoarseQuantizer.select <repro.serving.ann.CoarseQuantizer.select>`)
report its values, which is what makes them bit-equal to each other.

The kernels are deliberately pure NumPy with no model imports, so every
layer — including :mod:`repro.core` — can depend on them without cycles.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.metrics import registry

__all__ = ["row_norms", "cosine_scores", "row_cosines"]


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
    positive: bool | None = None,
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
    positive:
        Whether every entry of ``norms`` is known to be ``> 0`` — decided
        once where the norms are derived
        (:func:`repro.serving.index.scaled_rows`); tested here, over all
        n, only when the caller does not say.

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
    if positive is None:
        positive = bool((norms > 0).all())
    if positive and (qn > 0).all():
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


def row_cosines(
    coords: np.ndarray,
    norms: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Cosine of scaled query ``q`` with ``coords[rows]`` (all if None).

    Row-local: ``einsum("ij,j->i")`` reduces each row on its own, in an
    order fixed by ``k``, so a value depends on its row and the query and
    not on which other rows ride along, where the row sits, or how many
    queries were batched.  Zero-norm rows and the zero query score 0.
    """
    qn = np.sqrt(np.dot(q, q))
    if qn == 0:
        return np.zeros(coords.shape[0] if rows is None else rows.size)
    if rows is not None:
        coords, norms = coords[rows], norms[rows]
    denom = qn * norms
    out = np.zeros(denom.size)
    raw = np.einsum("ij,j->i", coords, q)
    np.divide(raw, denom, out=out, where=denom > 0)
    return out
