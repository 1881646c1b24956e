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
   row once, in row blocks (:data:`~repro.serving.kernel.SCAN_BLOCK`).
   It is the only step of a read sized by n;
2. the candidate set ``{approx ≥ cut − margin}``, where ``cut`` is the
   ``top``-th largest approximate cosine and/or the ``threshold``
   (:func:`prefilter_margin` proves the true answer is inside), found
   from the maxima of strided groups of the flush's ``(n, q)`` output
   (:func:`candidates`): per query, a partition of ``≈ √(n·top)``
   maxima and a gather of about as many rows, not a copy, partition and
   mask over all n (a short range is partitioned directly);
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
cell probed.  The full-width fp64 matrix (:func:`all_cosines`, the
fp64 :func:`~repro.serving.kernel.cosine_scores` of each row block)
remains the reference surface the rankings are tested against — same
indices, scores within 1e-12 — and what code that needs every score
reads.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from repro.obs.metrics import registry
from repro.serving.index import ScaledRows
from repro.serving.kernel import (
    cosine_scores, row_cosines, row_products, scaled_blocks,
)
from repro.serving.topk import ranked_order

__all__ = [
    "prefilter_margin",
    "unit_queries",
    "approx_cosines",
    "bounded",
    "DIRECT_CUT_ROWS",
    "group_count",
    "candidates",
    "cut_and_rescore",
    "ranked_scan",
    "all_cosines",
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

    Sufficiency.  Let ``A`` be the ``z``-th largest approximate cosine,
    ``L ≤ A`` any lower bound of it, and ``i`` a row of the true top
    ``z``.  If ``aᵢ < L − 2ε`` then ``cᵢ < L − ε``, while the ``z`` rows
    with ``aⱼ ≥ A ≥ L`` have ``cⱼ ≥ L − ε > cᵢ`` — ``z`` rows strictly
    ahead of ``i``, a contradiction.  A row with ``cᵢ ≥ threshold`` has
    ``aᵢ ≥ threshold − ε``.  Hence ``{a ≥ max(L, threshold) − 2ε}``
    contains every row of the answer, ties at the cut included — for
    ``L = A`` the tightest such set, and for the ``z``-th largest of any
    maxima over disjoint groups of rows (``z`` distinct rows reach it)
    a superset found without ranking all n values
    (:func:`candidates`, which then cuts it at ``A``).
    """
    return 2.0 * (k + 8) * 2.0**-24


def unit_queries(Qs: np.ndarray) -> np.ndarray:
    """``(q, k)`` scaled queries normalised and rounded to single
    (a zero query stays zero)."""
    qn = np.sqrt(np.einsum("ij,ij->i", Qs, Qs))
    return (Qs / np.where(qn > 0, qn, 1.0)[:, None]).astype(np.float32)


def approx_cosines(unit: np.ndarray, Qs: np.ndarray) -> np.ndarray:
    """``(n, q)`` single-precision cosines of unit rows with scaled queries.

    The only n-wide pass of an exact request, one per flush: rows are
    read in blocks of ``SCAN_BLOCK // (q·k)`` (one block when q = 1 or
    q > :data:`~repro.serving.kernel.SCAN_WIDTH`;
    :func:`~repro.serving.kernel.row_products`).  A zero query stays zero
    (approximate cosine 0 everywhere, as its true cosine is).
    """
    unit_q = unit_queries(Qs)
    t0 = time.perf_counter()
    # Contiguous: against the transposed view the small kernel takes
    # blocks of at most 1 200 outputs.
    approx = row_products(unit, np.ascontiguousarray(unit_q.T))
    registry.observe("serving.scan_seconds", time.perf_counter() - t0)
    return approx


def bounded(top: int | None, threshold: float | None, rows: int) -> bool:
    """Whether a query's filters cut ``rows`` candidates at all — one
    that keeps them all needs no single-precision pass."""
    return threshold is not None or (top is not None and top < rows)


#: Rows up to which a query's cut partitions all of its approximate
#: cosines: below this a partition costs less than the fixed steps of the
#: cut from group maxima (one query alone, top = 10, one CPU: 21 vs 34 µs
#: at 8 000 rows, 36 vs 37 µs at 16 000, 50 vs 38 µs at 25 000).  A probe
#: of a few cells is usually below it.  In a flush of several queries the
#: direct cut also reads each column at a stride, so there the groups
#: would pay off at fewer rows still.
DIRECT_CUT_ROWS = 1 << 14


def group_count(m: int, top: int) -> int:
    """How many strided groups a cut of more than :data:`DIRECT_CUT_ROWS`
    rows at ``top`` takes maxima of: ``⌊√(m·top)⌋`` (``top ≤ G < m`` for
    ``1 ≤ top < m``), so a query partitions ``G`` maxima and gathers
    about ``top·m/G`` rows, the two balanced."""
    return min(m, math.isqrt(m * top))


def candidates(
    approx: np.ndarray | None,
    tops: Sequence[int | None],
    thresholds: Sequence[float | None],
    k: int,
) -> list[np.ndarray | None]:
    """Per column of the ``(m, q)`` fp32 ``approx``, the ascending
    positions within :func:`prefilter_margin` of its query's cut —
    ``{a ≥ max(A, threshold) − 2ε}``, ``A`` the ``top``-th largest
    approximate cosine — or ``None`` where the query is not
    :func:`bounded` (every position; also for ``top ≤ 0``, which keeps
    nothing, and for every query when ``approx`` is ``None``).

    Only one step reads all ``m·q`` values: the maxima of ``G`` strided
    groups (positions ``g, g + G, …``; the ``m mod G`` last positions
    are groups of one), :func:`group_count` for the widest cut of the
    flush, taken for every query at once.  The ``top`` largest maxima
    are reached by ``top`` distinct rows, so the least of them, ``M``, is
    ``≤ A``, and every row of the answer sits in a group whose maximum is
    within the margin of ``max(M, threshold)`` (a lower bound of ``A``
    serves, see :func:`prefilter_margin`).  Each query partitions ``G``
    maxima, gathers its passing groups' rows (about ``top · m / G``) and
    cuts them at ``A``, which they contain — the same positions the
    ``top``-th largest of all ``m`` would give, without a copy of its
    column, a partition or a mask over all ``m``.  Up to
    :data:`DIRECT_CUT_ROWS` rows (``G = m``) the maxima are the values
    and the bound is the cut.
    """
    if approx is None:
        return [None] * len(tops)
    m, q = approx.shape
    cut = [
        bounded(top, threshold, m) and (top is None or top > 0)
        for top, threshold in zip(tops, thresholds)
    ]
    if not any(cut):
        return [None] * len(tops)
    groups, units = m, approx  # every row its own group: the direct cut
    if m > DIRECT_CUT_ROWS:
        groups = group_count(m, max(
            (t for t, c in zip(tops, cut) if c and t is not None and t < m),
            default=1,
        ))
    if groups < m:
        full = m - m % groups
        # Unit u < G: the maximum of group u; unit G + j: row full + j.
        units = np.empty((groups + m - full, q), dtype=approx.dtype)
        rounds = approx[:full].reshape(-1, groups, q)
        np.max(rounds, axis=0, out=units[:groups])
        units[groups:] = approx[full:]
        starts = np.arange(0, full, groups)[:, None]
    margin = prefilter_margin(k)
    out: list[np.ndarray | None] = []
    for i, (top, threshold) in enumerate(zip(tops, thresholds)):
        if not cut[i]:
            out.append(None)
            continue
        floor = -np.inf if threshold is None else float(threshold)
        ranked = top is not None and top < m
        column = units[:, i]
        bound = max(floor, _kth_largest(column, top)) if ranked else floor
        hit = np.flatnonzero(column >= bound - margin)
        if groups == m:  # the bound is the cut
            out.append(hit)
            continue
        split = hit.searchsorted(groups)
        rows = np.concatenate(
            [(hit[:split] + starts).ravel(), hit[split:] + (full - groups)]
        )
        values = approx[rows, i]
        # Fewer than ``top`` rows above the threshold: it is the cut.
        if ranked and values.size >= top:
            floor = max(floor, _kth_largest(values, top))
        out.append(rows[values >= floor - margin])
    return out


def _kth_largest(values: np.ndarray, k: int) -> float:
    return float(np.partition(values, values.size - k)[values.size - k])


def cut_and_rescore(
    scaled: ScaledRows,
    Qs: np.ndarray,
    tops: Sequence[int | None],
    thresholds: Sequence[float | None],
    approx: np.ndarray | None,
    *,
    positions: np.ndarray | None = None,
    offset: int = 0,
) -> list[list[tuple[int, float]]]:
    """Ranked ``(offset + row, cosine)`` pairs of each scaled query over
    the unit rows at ``positions`` (every row when ``None``).

    The tail every ranking shares — the exact scan over all rows and a
    probe over its cells' slices.  ``approx`` holds those rows' fp32
    cosines in ``positions`` order, one column per query; only the
    :func:`candidates` of a :func:`bounded` query survive.  Survivors
    are mapped through the layout (``scaled.order``) to ascending rows
    and scored by the row-local fp64 kernel, so each reported pair is
    the same bits whichever rows rode along.
    """
    kept = candidates(approx, tops, thresholds, Qs.shape[1])
    results = []
    for q, top, threshold, keep in zip(Qs, tops, thresholds, kept):
        if top is not None and top <= 0:
            results.append([])
            continue
        if keep is None:
            rows = positions  # None: every row, in document order
        else:
            rows = keep if positions is None else positions[keep]
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
        results.append(
            list(zip((index + offset).tolist(), scores[order].tolist()))
        )
    return results


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
    approx = None
    if any(bounded(t, th, n) for t, th in zip(tops, thresholds)):
        approx = approx_cosines(scaled.unit, Qs)
    return cut_and_rescore(scaled, Qs, tops, thresholds, approx, offset=offset)


def all_cosines(scaled: ScaledRows, Qs: np.ndarray) -> np.ndarray:
    """``(q, n)`` fp64 cosines of scaled queries with every row, in row
    order: the full-width :func:`~repro.serving.kernel.cosine_scores`
    over one :func:`~repro.serving.kernel.scaled_blocks` block at a time,
    with the held norms — for callers that read every score."""
    out = np.empty((Qs.shape[0], scaled.V.shape[0]))
    for at, _, block in scaled_blocks(scaled.V, scaled.s):
        out[:, at] = cosine_scores(
            block, Qs, norms=scaled.norms[at], positive=scaled.positive
        )
    return out
