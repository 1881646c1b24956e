"""Top-k selection without a full sort — identical output to one.

The historical ranking path was ``np.argsort(-s, kind="stable")[:top]``
followed by Python-level threshold filtering over all n ``(idx, score)``
pairs.  For top-z serving that is O(n log n) compare time plus O(n)
tuple churn per query.  :func:`topk_indices` replaces it with
``np.argpartition`` (O(n) selection) plus a stable sort of only the
candidate set — and is *element-identical* to the stable full sort,
including tie handling:

* stable descending argsort breaks score ties by ascending index;
* argpartition alone would pick an arbitrary subset of documents tied
  at the cut-off score, so we widen the candidate set to every index
  scoring ≥ the k-th partitioned value and stable-sort those.  Every
  excluded index scores strictly below the cut-off and therefore ranks
  after at least ``top`` candidates in the full sort.

:func:`ranked_order` adds the §3.1 ``threshold`` semantics as a
vectorized mask — no Python list of all n pairs is ever materialized.
"""

from __future__ import annotations

import time

import numpy as np

from repro.obs.metrics import registry

__all__ = ["topk_indices", "ranked_order", "ranked_pairs"]


def topk_indices(scores: np.ndarray, top: int | None) -> np.ndarray:
    """Indices of the ``top`` largest scores, in stable descending order.

    Element-identical to ``np.argsort(-scores, kind="stable")[:top]``.
    ``top=None`` (or ``top >= n``) returns the full stable ordering.
    Assumes finite scores (cosines are); non-finite values fall back to
    the full stable sort rather than guessing partition semantics.
    """
    s = np.asarray(scores)
    n = s.size
    if top is not None and top <= 0:
        return np.empty(0, dtype=np.intp)
    t0 = time.perf_counter()
    try:
        if top is None or top >= n:
            return np.argsort(-s, kind="stable")
        # The top-th largest value, taken from the top end: no negated copy.
        cutoff = np.partition(s, n - top)[n - top]
        cand = np.flatnonzero(s >= cutoff)
        if cand.size < top:  # NaN in scores: >= comparisons dropped rows
            return np.argsort(-s, kind="stable")[:top]
        # cand is ascending, so a stable sort on -s[cand] breaks ties by
        # ascending original index — exactly the full stable sort's order.
        order = np.argsort(-s[cand], kind="stable")
        return cand[order[:top]]
    finally:
        registry.observe("serving.topk_seconds", time.perf_counter() - t0)


def ranked_order(
    scores: np.ndarray,
    *,
    top: int | None = None,
    threshold: float | None = None,
) -> np.ndarray:
    """Ranked indices with the combined §3.1 filters applied in NumPy.

    Equivalent to stable-sorting all scores descending, dropping those
    below ``threshold``, then truncating to ``top`` — without the full
    sort or the all-n intermediate.
    """
    s = np.asarray(scores)
    if threshold is None:
        return topk_indices(s, top)
    keep = np.flatnonzero(s >= threshold)
    # keep is ascending, so ties again resolve by ascending index.
    return keep[topk_indices(s[keep], top)]


def ranked_pairs(
    scores: np.ndarray,
    *,
    top: int | None = None,
    threshold: float | None = None,
) -> list[tuple[int, float]]:
    """Filtered ranking as ``(doc_index, score)`` pairs.

    Only the surviving rows are converted to Python objects.
    """
    s = np.asarray(scores)
    order = ranked_order(s, top=top, threshold=threshold)
    return [(int(j), float(s[j])) for j in order]
