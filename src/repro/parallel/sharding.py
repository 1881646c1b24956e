"""Document sharding: the canonical row partition and the exact top-k merge.

For collections past the single-model comfort zone the classic recipe is
one LSI model per shard plus an exact top-z merge — scores are cosines in
each shard's own space, so the merge is only exact when the shards share
one model.  The cluster tier therefore shards the *scoring*, not the
decomposition, matching the paper's single-space TREC design: every
shard worker holds an :class:`~repro.serving.snapshot.EpochSnapshot` over a
contiguous row range of one model, and the router merges the per-range
rankings.  This module holds what every layer must agree on —
:func:`shard_bounds`, the row ranges; :data:`RANKED`, the record a
range answers each query with; and :func:`merge_topk`, the merge.
Each range is ranked by the one exact ranking
(:func:`~repro.serving.scan.ranked_scan`), whose scores are a pure
function of (row, query), and the merge preserves its tie order (lower
document index first), so merged results are bit-identical to the
whole-model search.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError

__all__ = ["RANKED", "shard_bounds", "merge_topk"]


def shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """Near-equal contiguous (lo, hi) row ranges covering ``0..n-1``.

    This is *the* canonical partition: the multi-process cluster plan
    (:mod:`repro.cluster.plan`) and the parity harnesses derive their
    row ranges from this one function, so a shard layout can never
    drift between layers.
    """
    if shards < 1:
        raise ShapeError("shards must be >= 1")
    if n < 0:
        raise ShapeError("n must be non-negative")
    bounds = np.linspace(0, n, shards + 1).astype(np.int64)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(shards)]


#: One ranked ``(index, score)`` pair as a record: what a shard worker
#: answers per query, over the cluster wire and into :func:`merge_topk`.
RANKED = np.dtype([("index", "<i8"), ("score", "<f8")])


def _ranked(pairs) -> np.ndarray:
    if isinstance(pairs, np.ndarray) and pairs.dtype == RANKED:
        return pairs
    return np.fromiter(pairs, dtype=RANKED, count=len(pairs))


def merge_topk(
    per_shard: Sequence[np.ndarray | Sequence[tuple[int, float]]], k: int
) -> list[tuple[int, float]]:
    """Exact top-k merge of per-shard ``(doc_index, score)`` rankings.

    Each shard is a :data:`RANKED` record array or any sequence of
    ``(index, score)`` tuples.  The shards are concatenated in the order given and the first
    ``k`` of one stable descending sort on score are kept — the order of
    ``sorted(..., reverse=True)`` — so with shards supplied in document
    order and each in stable descending order, score ties resolve by
    ascending document index: the flat search's tie order.
    """
    if k < 1:
        raise ShapeError("k must be >= 1")
    ranked = [_ranked(pairs) for pairs in per_shard]
    merged = np.concatenate(ranked) if ranked else np.empty(0, dtype=RANKED)
    top = merged[np.argsort(-merged["score"], kind="stable")[:k]]
    return list(zip(top["index"].tolist(), top["score"].tolist()))
