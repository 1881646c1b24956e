"""The one exact ranking: fp32 scan → candidate set → fp64 rescoring.

The paper ranks by cosine against all n rows of ``V_k Σ_k`` and says of
that cosine that it "is merely used to rank-order documents" (§3.1):
only the z rows that are returned need a full-precision value.  Every
exact ranking in the system (:meth:`EpochSnapshot.search
<repro.serving.snapshot.EpochSnapshot.search>` on a single node and in a
shard worker,
:meth:`LSIRetrieval.search <repro.retrieval.engine.LSIRetrieval.search>`,
:func:`repro.core.similarity.retrieve`) therefore has this shape:

1. :func:`approx_cosines` — one single-precision pass ``Û Q̂ᵀ`` per flush
   over the unit-normalised rows (:class:`~repro.serving.index.ScaledRows`),
   half the bytes of the fp64 scan, no n-wide divide: a batch reads each
   row once, in row blocks (:data:`SCAN_BLOCK`);
2. the candidate set ``{approx ≥ cut − margin}``, where ``cut`` is the
   ``top``-th largest approximate cosine and/or the ``threshold``
   (:func:`prefilter_margin` proves the true answer is inside);
3. :func:`~repro.serving.kernel.row_cosines` of the candidates only — a
   **row-local** fp64 kernel over ``V[rows] * s``, formed from the
   model's own factors for the survivors alone (for a request no filter
   cuts, for every row, one block at a time) — ranked by
   :func:`~repro.serving.topk.ranked_order`.

Steps 2 and 3 are one function, :func:`cut_and_rescore`, which a probe
(:meth:`CoarseQuantizer.select <repro.serving.ann.CoarseQuantizer.select>`)
ends in too: it runs step 1 over its probed cells' contiguous slices of
the cell-ordered unit rows and hands over those positions.  Candidates
are mapped through the layout (``ScaledRows.order``) to ascending
document rows before rescoring, so the unit rows may be held in any
order.  Because step 3's value is a pure function of (row, query), the
reported ``(index, score)`` pairs are bit-equal however the rows were
reached: whole model or row range, one shard or seven, a batch of 1 or
of 16, document or cell order, exhaustive or probe-bounded with every
cell probed.  The full-width fp64 matrix
(:func:`~repro.serving.kernel.cosine_scores`) remains the reference
surface the rankings are tested against — same indices, scores within
1e-12 — and what evaluation code that needs every score reads.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.obs.metrics import registry
from repro.serving.index import ScaledRows
from repro.serving.kernel import row_cosines
from repro.serving.topk import ranked_order

__all__ = [
    "prefilter_margin",
    "unit_queries",
    "approx_cosines",
    "bounded",
    "cut_and_rescore",
    "ranked_scan",
]

_CANDIDATE_BUCKETS = (
    1.0, 10.0, 20.0, 40.0, 100.0, 200.0, 400.0, 1000.0, 10_000.0,
    100_000.0, 1_000_000.0,
)


def prefilter_margin(k: int) -> float:
    """``2·(k+8)·2⁻²⁴``: how far below the cut a candidate's fp32 cosine may sit.

    Let ``u = 2⁻²⁴`` (unit roundoff of IEEE single) and ``x̂, ŷ`` the
    unit document row and unit query, each rounded once to single
    (``|δ| ≤ u`` per component).  A length-``k`` dot product accumulated
    in single, in any order, satisfies ``|fl(x̂ᵀŷ) − xᵀy| ≤
    γ_{k+2}·Σ|xᵢyᵢ| ≤ γ_{k+2}·‖x‖‖y‖ = γ_{k+2}`` for unit vectors
    (Higham, *Accuracy and Stability*, §3.1, the two input roundings
    folded in; Cauchy–Schwarz), with ``γ_m = m·u / (1 − m·u)``.  So every
    approximate cosine is within ``ε = (k+8)·u`` of the true one: ``k+2``
    from the bound, and six ``u`` of slack that covers the ``1/(1−m·u)``
    factor (k < 10⁴), the fp64 roundings in the norms and in the
    rescored value (``O(k·2⁻⁵³)``), single-precision underflow of
    products below 10⁻³⁸, and the rounding of the cut itself when it is
    compared in single.

    Sufficiency.  Let ``A`` be the ``z``-th largest approximate cosine
    and ``i`` a row of the true top ``z``.  If ``aᵢ < A − 2ε`` then
    ``cᵢ < A − ε``, while the ``z`` rows with ``aⱼ ≥ A`` have ``cⱼ ≥ A −
    ε > cᵢ`` — ``z`` rows strictly ahead of ``i``, a contradiction.  A
    row with ``cᵢ ≥ threshold`` has ``aᵢ ≥ threshold − ε``.  Hence
    ``{a ≥ max(A, threshold) − 2ε}`` contains every row of the answer,
    ties at the cut included.
    """
    return 2.0 * (k + 8) * 2.0**-24


def unit_queries(Qs: np.ndarray) -> np.ndarray:
    """``(q, k)`` scaled queries normalised and rounded to single
    (a zero query stays zero)."""
    qn = np.sqrt(np.einsum("ij,ij->i", Qs, Qs))
    return (Qs / np.where(qn > 0, qn, 1.0)[:, None]).astype(np.float32)


#: Elements (rows · q · k) of one row block of a 2- to 16-query pass.  One
#: skinny sgemm over all n rows pays OpenBLAS's operand packing (on S, a
#: 2-query call took 2.2× a 1-query one); blocks under its small-matrix
#: bound (M·N·K ≤ 10⁶) skip it, so a batch streams the rows once.  Past 16
#: queries blocks stopped paying (figures: DESIGN.md, micro-batching).
SCAN_BLOCK = 1 << 19
SCAN_WIDTH = 16


def approx_cosines(unit: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """``(n, q)`` single-precision cosines of unit rows with scaled queries.

    The only n-wide pass of an exact request, one per flush: rows are
    read in blocks of ``SCAN_BLOCK // (q·k)`` (one block when q = 1 or
    q > :data:`SCAN_WIDTH`).  A zero query stays zero (approximate
    cosine 0 everywhere, as its true cosine is).
    """
    unit_q = unit_queries(Qs)
    (n, k), q = unit.shape, unit_q.shape[0]
    t0 = time.perf_counter()
    blocked = 1 < q <= SCAN_WIDTH
    step = max(SCAN_BLOCK // (q * k or 1) if blocked else n, 1)
    approx = np.empty((n, q), dtype=np.float32)
    # Contiguous: against the transposed view the small kernel takes
    # blocks of at most 1 200 outputs.
    columns = np.ascontiguousarray(unit_q.T)
    for a in range(0, n, step):
        np.matmul(unit[a:a + step], columns, out=approx[a:a + step])
    registry.observe("serving.scan_seconds", time.perf_counter() - t0)
    return approx


def bounded(top: int | None, threshold: float | None, rows: int) -> bool:
    """Whether a query's filters cut ``rows`` candidates at all — one
    that keeps them all needs no single-precision pass."""
    return threshold is not None or (top is not None and top < rows)


def cut_and_rescore(
    scaled: ScaledRows,
    q: np.ndarray,
    top: int | None,
    threshold: float | None,
    approx: np.ndarray | None,
    *,
    positions: np.ndarray | None = None,
    offset: int = 0,
) -> list[tuple[int, float]]:
    """Ranked ``(offset + row, cosine)`` pairs of one scaled query over
    the unit rows at ``positions`` (every row when ``None``).

    The tail every ranking shares — the exact scan over all rows and a
    probe over its cells' slices.  ``approx`` holds those rows' fp32
    cosines in ``positions`` order; it is read only when the query is
    :func:`bounded`, and then only the rows within
    :func:`prefilter_margin` of the cut survive.  Survivors are mapped
    through the layout (``scaled.order``) to ascending rows and scored
    by the row-local fp64 kernel, so each reported pair is the same
    bits whichever rows rode along.
    """
    if top is not None and top <= 0:
        return []
    n = scaled.unit.shape[0] if positions is None else positions.size
    if bounded(top, threshold, n):
        cut = -np.inf if threshold is None else float(threshold)
        if top is not None and top < n:
            kth = np.partition(approx, n - top)[n - top]
            cut = max(cut, float(kth))
        keep = np.flatnonzero(approx >= cut - prefilter_margin(q.size))
        positions = keep if positions is None else positions[keep]
    rows = positions  # None: every row, in document order
    if rows is not None and scaled.order is not None:
        rows = np.sort(scaled.order[rows])
    scores = row_cosines(scaled.V, scaled.s, scaled.norms, q, rows)
    registry.observe(
        "serving.rescore_candidates",
        float(scores.size),
        boundaries=_CANDIDATE_BUCKETS,
    )
    order = ranked_order(scores, top=top, threshold=threshold)
    index = order if rows is None else rows[order]
    return list(zip((index + offset).tolist(), scores[order].tolist()))


def ranked_scan(
    scaled: ScaledRows,
    Qs: np.ndarray,
    tops: Sequence[int | None],
    thresholds: Sequence[float | None],
    *,
    offset: int = 0,
) -> list[list[tuple[int, float]]]:
    """Ranked ``(offset + row, cosine)`` pairs for each scaled query.

    Element-identical in indices to stable-sorting row ``i`` of the
    fp64 ``cosine_scores(V * s, Qs)`` descending, dropping scores below
    ``thresholds[i]`` and truncating to ``tops[i]``, whatever the
    layout of ``scaled.unit``.
    """
    n = scaled.unit.shape[0]
    cuts = [
        bounded(top, threshold, n) for top, threshold in zip(tops, thresholds)
    ]
    approx = approx_cosines(scaled.unit, Qs) if any(cuts) else None
    return [
        cut_and_rescore(
            scaled, q, top, threshold,
            # One contiguous copy: selecting from a strided column costs more.
            np.ascontiguousarray(approx[:, i]) if cuts[i] else None,
            offset=offset,
        )
        for i, (q, top, threshold) in enumerate(zip(Qs, tops, thresholds))
    ]
