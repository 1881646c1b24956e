"""Document sharding: the canonical row partition and the exact top-k merge.

For collections past the single-model comfort zone the classic recipe is
one LSI model per shard plus an exact top-z merge — scores are cosines in
each shard's own space, so the merge is only exact when the shards share
one model.  The cluster tier therefore shards the *scoring*, not the
decomposition, matching the paper's single-space TREC design: every
shard worker holds an :class:`~repro.server.state.EpochSnapshot` over a
contiguous row range of one model, and the router merges the per-range
lists.  This module holds the two pieces every layer must agree on —
:func:`shard_bounds`, the row ranges, and :func:`merge_topk`, the merge.
Each range is ranked by the one exact ranking
(:func:`~repro.serving.scan.ranked_scan`), whose scores are a pure
function of (row, query), and the merge preserves its tie order (lower
document index first), so merged results are bit-identical to the
whole-model search.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.errors import ShapeError

__all__ = ["shard_bounds", "merge_topk"]


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


def merge_topk(
    per_shard: Sequence[Sequence[tuple[int, float]]], k: int
) -> list[tuple[int, float]]:
    """Exact top-k merge of per-shard ``(doc_index, score)`` lists.

    ``heapq.nlargest`` is stable, so with shards supplied in document
    order and each shard list in stable descending order, score ties
    resolve by ascending document index — the flat search's tie order.
    """
    if k < 1:
        raise ShapeError("k must be >= 1")
    merged = heapq.nlargest(
        k,
        (pair for shard in per_shard for pair in shard),
        key=lambda pair: pair[1],
    )
    return merged
