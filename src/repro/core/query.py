"""Query representation (Eq. 6).

A query is "a set of words" represented as a vector in k-space::

    q̂ = qᵀ U_k Σ_k⁻¹

where ``q`` is the (weighted) term-frequency vector of the query words.
"The query vector is located at the weighted sum of its constituent term
vectors", with ``Σ_k⁻¹`` differentially weighting the dimensions — so the
projection reads only the rows of ``U_k`` the query's terms own:
``q̂ = (w @ U_k[ids]) / Σ_k`` over the query's term ids and weighted
counts, at a cost that does not grow with the vocabulary.  A query is a
pseudo-document (Eq. 7); folding in a batch of documents applies the
same weighting rule to dense count columns
(:func:`~repro.weighting.schemes.weight_counts`).
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.text.tokenizer import tokenize
from repro.weighting.schemes import weight_counts

__all__ = [
    "project_query",
    "batch_project_queries",
    "project_terms",
    "query_terms",
]


def query_terms(
    model: LSIModel, query: str | Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """The query's sorted, unique term ids and their raw counts.

    Accepts raw text (tokenized with the standard tokenizer) or an already
    tokenized sequence.  Words that are not indexed terms are dropped,
    exactly as the paper drops *of*, *children*, *with* from the worked
    query.
    """
    tokens = tokenize(query) if isinstance(query, str) else list(query)
    counted = Counter(
        i for i in map(model.vocabulary.get, tokens) if i is not None
    )
    ids = sorted(counted)
    return (
        np.array(ids, dtype=np.intp),
        np.array([counted[i] for i in ids], dtype=np.float64),
    )


def project_terms(
    model: LSIModel, ids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Eq. 6 over a query's nonzeros: ``q̂ = (w @ U_k[ids]) / Σ_k``.

    ``w`` is the counts weighted like the documents were (the model's
    local transform, times its stored global weights ``G[ids]``).  No
    ids — an all out-of-vocabulary query — give exact zeros.  A zero
    singular value (a rank-deficient fit) would make the projection blow
    up, so it is refused.
    """
    ids = np.asarray(ids, dtype=np.intp)
    counts = np.asarray(counts, dtype=np.float64)
    if ids.ndim != 1 or ids.shape != counts.shape:
        raise ShapeError(
            f"term ids {ids.shape} and counts {counts.shape} must be "
            "matching 1-D arrays"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= model.n_terms):
        raise ShapeError(f"term ids outside the model's m={model.n_terms}")
    if np.any(model.s <= 0):
        raise ShapeError(
            "model has zero singular values; truncate before projecting"
        )
    w = weight_counts(model.scheme, counts, model.global_weights[ids])
    return (w @ model.U[ids]) / model.s


def project_query(model: LSIModel, query: str | Sequence[str]) -> np.ndarray:
    """Full Eq. 6 pipeline: tokenize, weight, project."""
    return project_terms(model, *query_terms(model, query))


def batch_project_queries(
    model: LSIModel, queries: Sequence[str]
) -> np.ndarray:
    """Eq. 6 for many queries at once: ``(q, k)`` pseudo-documents."""
    if not queries:
        raise ShapeError("need at least one query")
    return np.stack([project_query(model, q) for q in queries])
