"""Relevance feedback in the LSI space (§5.1).

"Most of the tests using LSI have involved a method in which the initial
query is replaced with the vector sum of the documents the user has
selected as relevant. ... Replacing the user's query with the first
relevant document improves performance by an average of 33% and replacing
it with the average of the first three relevant documents improves
performance by an average of 67%."

All functions operate on k-space vectors of a fitted LSI model and return
a new query vector; they never mutate the model.  Negative feedback (the
Rocchio γ term) is included even though "the use of negative information
has not yet been exploited in LSI" — it is the natural extension and is
benchmarked as an ablation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError

__all__ = ["mean_relevant_query", "rocchio"]


def _doc_vectors(model: LSIModel, indices: Sequence[int]) -> np.ndarray:
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= model.n_documents):
        raise ShapeError("document index out of range in feedback")
    return model.V[idx] * model.s  # scaled document coordinates


def mean_relevant_query(
    model: LSIModel, relevant: Sequence[int], *, first: int | None = None
) -> np.ndarray:
    """Replace the query with the mean of the first ``first`` relevant
    documents (the paper's strongest protocol uses the first three)."""
    rel = list(relevant)
    if not rel:
        raise ShapeError("mean_relevant_query needs at least one document")
    if first is not None:
        rel = rel[:first]
    vecs = _doc_vectors(model, rel)
    return vecs.mean(axis=0) / model.s


def rocchio(
    model: LSIModel,
    qhat: np.ndarray,
    relevant: Sequence[int],
    nonrelevant: Sequence[int] = (),
    *,
    alpha: float = 1.0,
    beta: float = 0.75,
    gamma: float = 0.15,
) -> np.ndarray:
    """Rocchio reformulation in k-space.

    ``q' = α q + β · mean(relevant) − γ · mean(nonrelevant)`` — the γ term
    moves the query *away* from judged-irrelevant documents, the extension
    the paper mentions as unexplored.
    """
    qhat = np.asarray(qhat, dtype=np.float64).ravel()
    if qhat.size != model.k:
        raise ShapeError(f"query vector has {qhat.size} dims for k={model.k}")
    out = alpha * qhat
    if len(relevant):
        out = out + beta * (_doc_vectors(model, relevant).mean(axis=0) / model.s)
    if len(nonrelevant):
        out = out - gamma * (
            _doc_vectors(model, nonrelevant).mean(axis=0) / model.s
        )
    return out
