"""Document sharding: split, search shards, merge top results exactly.

For collections past the single-model comfort zone the classic recipe is
one LSI model per shard plus an exact top-z merge — scores are cosines in
each shard's own space, so the merge is only exact when the shards share
one model; :func:`sharded_search` therefore shards the *scoring*, not the
decomposition, matching the paper's single-space TREC design.

Shards are contiguous row ranges of the model's memoized comparison
space (:func:`~repro.serving.index.scaled_documents`), so per-shard
scoring works on zero-copy views; each shard is ranked by the one exact
ranking (:func:`~repro.serving.scan.ranked_scan`), whose scores are a
pure function of (row, query), and the merge preserves its tie order
(lower document index first), so sharded results are bit-identical to a
flat search.  :func:`sharded_batch_search` runs a whole query batch
through the same machinery: one fp32 pass per (shard × batch), shards
optionally scored by a thread pool, per-shard top-k lists merged exactly
per query.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import batch_project_queries
from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.parallel.pool import parallel_map
from repro.serving.index import ScaledRows, scaled_documents
from repro.serving.scan import ranked_scan

__all__ = [
    "shard_documents",
    "shard_bounds",
    "sharded_search",
    "sharded_batch_search",
    "merge_topk",
]


def shard_documents(n: int, shards: int) -> list[np.ndarray]:
    """Split document indices ``0..n-1`` into near-equal contiguous shards."""
    return [np.arange(lo, hi) for lo, hi in shard_bounds(n, shards)]


def shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """Near-equal contiguous (lo, hi) row ranges covering ``0..n-1``.

    This is *the* canonical partition: the in-process sharded search,
    the multi-process cluster plan (:mod:`repro.cluster.plan`), and the
    parity harnesses all derive their row ranges from this one function,
    so a shard layout can never drift between layers.
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


def _shard_topk(
    scaled: ScaledRows, Qs: np.ndarray, lo: int, hi: int, top: int
) -> list[list[tuple[int, float]]]:
    """Per-query top-``top`` pairs within rows ``lo:hi`` of ``scaled``.

    The shared ranked scan on zero-copy views of the memoized arrays;
    indices are shifted to global.
    """
    q = Qs.shape[0]
    return ranked_scan(
        scaled.rows(lo, hi), Qs, [top] * q, [None] * q, offset=lo
    )


def sharded_search(
    model: LSIModel,
    qhat: np.ndarray,
    *,
    shards: int = 4,
    top: int = 10,
    workers: int | None = None,
) -> list[tuple[int, float]]:
    """Score shards (optionally in parallel), merge exact top results.

    The one-query case of :func:`sharded_batch_search`.  Identical
    results to a flat search; the point is the execution shape —
    per-shard scoring parallelizes and bounds memory.
    """
    qhat = np.asarray(qhat, dtype=np.float64).ravel()
    return sharded_batch_search(
        model, qhat[None, :], top=top, shards=shards, workers=workers
    )[0]


def sharded_batch_search(
    model: LSIModel,
    queries: Sequence[str] | np.ndarray,
    *,
    top: int = 10,
    shards: int = 4,
    workers: int | None = None,
) -> list[list[tuple[int, float]]]:
    """Top-``top`` lists for every query, scored shard-parallel.

    ``queries`` may be raw texts (projected with Eq. 6 first) or an
    already-projected ``(q, k)`` array.  Each shard ranks the whole
    query batch over its slice of ``V_k Σ_k`` — optionally across a
    thread pool (NumPy releases the GIL inside the scan) — then the
    per-shard top-k lists are merged exactly per query.
    Results do not depend on ``shards``; ``shards=1`` is the flat search.
    """
    if top < 1:
        raise ShapeError("top must be >= 1")
    with span("lsi.batch_search", shards=shards, top=top):
        if isinstance(queries, np.ndarray):
            Q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        else:
            with span("lsi.project.batch", queries=len(queries)):
                Q = batch_project_queries(model, queries)
        if Q.shape[1] != model.k:
            raise ShapeError(
                f"queries have {Q.shape[1]} dims for k={model.k}"
            )
        scaled = scaled_documents(model)
        Qs = Q * model.s
        parts = shard_bounds(model.n_documents, shards)

        def search_shard(
            bounds: tuple[int, int],
        ) -> list[list[tuple[int, float]]]:
            lo, hi = bounds
            registry.inc("serving.shard_searches")
            with span("lsi.search.shard", lo=lo, hi=hi):
                return _shard_topk(scaled, Qs, lo, hi, top)

        per_shard = parallel_map(search_shard, parts, workers=workers)
        with span("lsi.search.merge", shards=shards):
            return [
                merge_topk([shard[qi] for shard in per_shard], top)
                for qi in range(Qs.shape[0])
            ]
