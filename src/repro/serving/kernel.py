"""The fp64 cosine kernels: the full-width reference and the row-local one.

:func:`cosine_scores` is the full ``(q, n)`` cosine matrix — a dense
GEMM (GEMV for the q=1 case, row blocks for 2 to :data:`SCAN_WIDTH`
queries) against the document coordinate rows, followed by one
vectorized normalization with zero-norm masking.  Taken one row block
at a time (:func:`repro.serving.scan.all_cosines`) it is what
``cosine_similarities`` and ``EpochSnapshot.score_batch`` return: the
score vector evaluation code reads, and the reference every served
ranking is held to.  A BLAS value
can depend on where a row sits and on how many queries ride along, in
the last bit.

:func:`row_cosines` scores chosen rows against one query with a
reduction that is local to each row, so its value is a pure function of
(row, query).  The ranked paths (:mod:`repro.serving.scan`,
:meth:`CoarseQuantizer.select <repro.serving.ann.CoarseQuantizer.select>`)
report its values, which is what makes them bit-equal to each other.
It reads the factors ``V`` and ``Σ``, forming the rows it scores as
``V[rows] Σ`` (:func:`scaled_blocks`), so no n × k fp64 copy of the
comparison space is held.

The kernels are deliberately pure NumPy with no model imports, so every
layer — including :mod:`repro.core` — can depend on them without cycles.
"""

from __future__ import annotations

import time
from typing import Iterator

import numpy as np

from repro.obs.metrics import registry

__all__ = [
    "ROW_BLOCK", "SCAN_BLOCK", "SCAN_WIDTH", "scaled_blocks", "row_norms",
    "row_products", "cosine_scores", "row_cosines",
]

#: Rows per block wherever rows of ``V_k Σ_k`` are formed from the
#: factors: no temporary is larger than ``ROW_BLOCK × k`` fp64 (512 KB at
#: k = 64, cache-sized).  A derivation's transient is a block or two, not
#: a fraction of ``V``, and a reader's peak RSS keeps none of it; on a
#: 50 000 × 64 ``V`` the norms and unit rows also derive faster than in
#: blocks of 8 192 rows (DESIGN.md, "Why each factor is held once").
ROW_BLOCK = 1024

#: Elements (rows · q · k) of one row block of a 2- to 16-query product.
#: One skinny GEMM over all n rows pays OpenBLAS's operand packing (on S,
#: a 2-query call took 2.2× a 1-query one); blocks under its small-matrix
#: bound (M·N·K ≤ 10⁶) skip it, so a batch streams the rows once.  Past 16
#: queries blocks stopped paying (figures: DESIGN.md, micro-batching).
SCAN_BLOCK = 1 << 19
SCAN_WIDTH = 16


def scaled_blocks(
    V: np.ndarray, s: np.ndarray, rows: np.ndarray | None = None
) -> Iterator[tuple[slice, slice | np.ndarray, np.ndarray]]:
    """``(at, idx, V[idx] Σ)`` per block of at most :data:`ROW_BLOCK` rows.

    ``rows`` (every row of ``V`` when ``None``) are taken in the order
    given: ``at`` is a block's slice of positions in ``rows``, ``idx``
    the rows of ``V`` it covers.  Each block is a fresh C-contiguous
    product, elementwise the IEEE multiplies of ``V * s`` — so a value
    reduced from one of its rows is the value the whole product gives.
    """
    n = V.shape[0] if rows is None else rows.size
    for start in range(0, n, ROW_BLOCK):
        at = slice(start, start + ROW_BLOCK)
        if rows is None:
            idx, block = at, np.multiply(V[at], s, order="C")
        else:
            # Gathering already copies the rows: scale the copy in place.
            idx = rows[at]
            block = np.ascontiguousarray(V[idx])
            block *= s
        yield at, idx, block


def row_products(M: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``M @ columns``: ``(n, q)`` in ``M``'s dtype, for a contiguous
    ``(k, q)`` operand — in row blocks of ``SCAN_BLOCK // (q·k)`` rows
    when 1 < q ≤ :data:`SCAN_WIDTH`, else one call (at q = 1, the GEMV).
    """
    (n, k), q = M.shape, columns.shape[1]
    blocked = 1 < q <= SCAN_WIDTH
    step = max(SCAN_BLOCK // (q * k or 1) if blocked else n, 1)
    out = np.empty((n, q), dtype=M.dtype)
    for a in range(0, n, step):
        np.matmul(M[a:a + step], columns, out=out[a:a + step])
    return out


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
    single-query path is literally the one-row case of the batch path;
    2 to :data:`SCAN_WIDTH` queries are scored in row blocks
    (:func:`row_products`), which skips the operand packing one skinny
    GEMM pays, and wider batches in one GEMM.
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
    elif Q2.shape[0] <= SCAN_WIDTH:
        # Divided in the (n, q) layout the blocks are written in; the
        # result is its (q, n) transpose.
        raw = row_products(M, np.ascontiguousarray(Q2.T)).T
    else:
        raw = Q2 @ M.T
    registry.observe("serving.gemm_seconds", time.perf_counter() - t0)
    # In ``raw``'s layout, so the divide streams both operands.
    denom = np.multiply(qn[:, None], norms[None, :], out=np.empty_like(raw))
    if positive is None:
        positive = bool((norms > 0).all())
    if positive and (qn > 0).all():
        # Common case (no zero-norm rows): plain broadcast division.
        # Each element is the same IEEE divide the masked path performs,
        # so the scores are bit-identical — but without the three (q, n)
        # temporaries boolean fancy-indexing allocates, which dominate
        # the batched call once the GEMM itself is fast.
        return np.divide(raw, denom, out=raw)
    out = np.zeros_like(raw)
    ok = denom > 0
    np.divide(raw, denom, out=out, where=ok)
    return out


def row_cosines(
    V: np.ndarray,
    s: np.ndarray,
    norms: np.ndarray,
    q: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Cosine of scaled query ``q`` with rows ``rows`` of ``V Σ`` (all if
    None); ``norms`` holds the norm of every row of ``V Σ``.

    Row-local: ``einsum("ij,j->i")`` reduces each row on its own, in an
    order fixed by ``k``, so a value depends on its row and the query and
    not on which other rows ride along, where the row sits, or how many
    queries were batched — which is also what lets the rows be formed
    block by block.  Zero-norm rows and the zero query score 0.
    """
    out = np.zeros(V.shape[0] if rows is None else rows.size)
    qn = np.sqrt(np.dot(q, q))
    if qn == 0:
        return out
    for at, idx, block in scaled_blocks(V, s, rows):
        denom = qn * norms[idx]
        raw = np.einsum("ij,j->i", block, q)
        np.divide(raw, denom, out=out[at], where=denom > 0)
    return out
