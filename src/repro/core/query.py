"""Query representation (Eq. 6).

A query is "a set of words" represented as a vector in k-space::

    q̂ = qᵀ U_k Σ_k⁻¹

where ``q`` is the (weighted) term-frequency vector of the query words.
"The query vector is located at the weighted sum of its constituent term
vectors", with ``Σ_k⁻¹`` differentially weighting the dimensions.  The
same projection folds in a new document (Eq. 7) — a query *is* a pseudo-
document, which is why :func:`pseudo_document` is shared by both paths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.text.tdm import count_vector
from repro.text.tokenizer import tokenize

__all__ = [
    "project_query",
    "batch_project_queries",
    "project_counts",
    "pseudo_document",
    "query_counts",
]


def query_counts(model: LSIModel, query: str | Sequence[str]) -> np.ndarray:
    """Raw term-count vector of a query in the model's term space.

    Accepts raw text (tokenized with the standard tokenizer) or an already
    tokenized sequence.  Words that are not indexed terms are dropped,
    exactly as the paper drops *of*, *children*, *with* from the worked
    query.
    """
    tokens = tokenize(query) if isinstance(query, str) else list(query)
    return count_vector(tokens, model.vocabulary)


def pseudo_document(model: LSIModel, weighted_counts: np.ndarray) -> np.ndarray:
    """Project a weighted m-vector into k-space: ``d̂ = dᵀ U_k Σ_k⁻¹``.

    This is simultaneously Eq. 6 (queries) and Eq. 7 (folding in a
    document).  Singular values of zero would make the projection blow
    up; they cannot occur in a properly truncated model, so we validate.
    """
    d = np.asarray(weighted_counts, dtype=np.float64).ravel()
    if d.size != model.n_terms:
        raise ShapeError(
            f"vector length {d.size} != m={model.n_terms}"
        )
    if np.any(model.s <= 0):
        raise ShapeError(
            "model has zero singular values; truncate before projecting"
        )
    return (d @ model.U) / model.s


def project_counts(model: LSIModel, counts: np.ndarray) -> np.ndarray:
    """Weight a raw term-count vector and project it into k-space.

    The counts receive the model's term weights (local transform +
    stored global weights), then the Eq. 6 projection.  Split out from
    :func:`project_query` so callers that already hold counts — the
    serving layer's query-vector cache keys on them — can skip the
    tokenization pass.
    """
    from repro.weighting.schemes import WeightedMatrix  # noqa: F401 (doc ref)
    from repro.weighting.local import NEEDS_COL_MAX, local_weight

    if model.scheme.local in NEEDS_COL_MAX:
        cmax = max(counts.max(), 1.0)
        local = local_weight(
            model.scheme.local, counts, np.full_like(counts, cmax)
        )
    else:
        local = local_weight(model.scheme.local, counts)
    weighted = local * model.global_weights
    return pseudo_document(model, weighted)


def project_query(model: LSIModel, query: str | Sequence[str]) -> np.ndarray:
    """Full Eq. 6 pipeline: tokenize, weight, project."""
    return project_counts(model, query_counts(model, query))


def batch_project_queries(
    model: LSIModel, queries: Sequence[str]
) -> np.ndarray:
    """Eq. 6 for many queries at once: ``(q, k)`` pseudo-documents."""
    if not queries:
        raise ShapeError("need at least one query")
    return np.stack([project_query(model, q) for q in queries])
