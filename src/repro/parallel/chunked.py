"""Blocked (cache-friendly, memory-bounded) bulk fold-in.

Folding a large document batch is a streaming problem: process blocks of
columns, never materialize more than one block of temporaries.  The
block size defaults to a few thousand vectors — small enough to stay in
cache, large enough to amortize the NumPy call overhead (guide advice:
vectorize, but mind working-set size).  Blocked *scoring* is
``EpochSnapshot.search(shards=, workers=)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError

__all__ = ["blocked_fold_in"]

DEFAULT_BLOCK = 4096


def blocked_fold_in(
    model: LSIModel,
    counts: np.ndarray,
    doc_ids: list[str],
    *,
    block: int = DEFAULT_BLOCK,
) -> LSIModel:
    """Fold a large document block in, ``block`` columns at a time.

    Equivalent to :func:`repro.updating.folding.fold_in_documents` but the
    weighted temporaries never exceed ``m × block``.  This is the shape of
    the paper's TREC pipeline, where the fold-in stream was an order of
    magnitude larger than the decomposed sample.
    """
    from repro.updating.folding import _weight_columns

    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 1:
        counts = counts[:, None]
    p = counts.shape[1]
    if len(doc_ids) != p:
        raise ShapeError(f"{len(doc_ids)} ids for {p} documents")
    vecs = np.empty((p, model.k))
    for lo in range(0, p, block):
        hi = min(lo + block, p)
        weighted = _weight_columns(model, counts[:, lo:hi])
        vecs[lo:hi] = (weighted.T @ model.U) / model.s
    return model.with_documents(vecs, doc_ids, provenance="fold-in")
