"""Folding-in new documents and terms (Eq. 7 and 8).

"Folding-in documents is essentially the process described in Section 2.2
for query representation": a new document column ``d`` becomes::

    d̂ = dᵀ U_k Σ_k⁻¹                                            (Eq. 7)

appended to the rows of ``V_k``; a new term row ``t`` becomes::

    t̂ = t V_k Σ_k⁻¹                                             (Eq. 8)

appended to the rows of ``U_k``.  "The coordinates of the original topics
stay fixed, and hence the new data has no effect on the clustering of
existing terms or documents" — our implementation appends and never
mutates, so that property holds bit-exactly (asserted in tests).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.text.tdm import count_vector
from repro.text.tokenizer import tokenize
from repro.weighting.schemes import weight_counts

__all__ = ["fold_in_documents", "fold_in_terms", "fold_in_texts"]


def _weight_columns(model: LSIModel, counts: np.ndarray) -> np.ndarray:
    """Apply the model's weighting to raw count columns ``(m, p)`` — the
    same rule a query's nonzeros get (:func:`weight_counts`)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 1:
        counts = counts[:, None]
    if counts.shape[0] != model.n_terms:
        raise ShapeError(
            f"document block has {counts.shape[0]} rows for m={model.n_terms}"
        )
    return weight_counts(model.scheme, counts, model.global_weights[:, None])


def _weight_rows(
    model: LSIModel,
    counts: np.ndarray,
    terms: Sequence[str],
    global_weights: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weight raw count rows ``(q, n)`` of ``q`` new terms: ``(T, G)``.

    The same rule as :func:`_weight_columns`, one item per row: the local
    transform reads the term's own counts (a lone new row cannot know a
    document's maximum, so ``augmented`` takes the row's), and ``G``
    defaults to 1 for a brand-new term.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 1:
        counts = counts[None, :]
    q, n = counts.shape
    if n != model.n_documents:
        raise ShapeError(
            f"term block has {n} columns for n={model.n_documents}"
        )
    if len(terms) != q:
        raise ShapeError(f"{len(terms)} names for {q} terms")
    if global_weights is None:
        gw = np.ones(q)
    else:
        gw = np.asarray(global_weights, dtype=np.float64).ravel()
        if gw.size != q:
            raise ShapeError("global_weights must have one entry per term")
    return weight_counts(model.scheme, counts.T, gw).T, gw


def fold_in_documents(
    model: LSIModel,
    counts: np.ndarray,
    doc_ids: Sequence[str],
) -> LSIModel:
    """Fold ``p`` new documents (raw count columns) into the model.

    Returns a new model with ``p`` extra document vectors; existing
    coordinates are copied unchanged into the new ``V`` (an
    ``(n + p) × k`` stack), so the no-effect property of §3.3 is
    structural.
    """
    with span("lsi.fold.documents") as sp:
        weighted = _weight_columns(model, counts)
        p = weighted.shape[1]
        sp.set_attr("p", p)
        if len(doc_ids) != p:
            raise ShapeError(f"{len(doc_ids)} ids for {p} documents")
        # d̂ = dᵀ U_k Σ_k⁻¹ for every column at once.
        V_new = (weighted.T @ model.U) / model.s
        registry.inc("updating.folded_documents", p)
        return model.with_documents(V_new, list(doc_ids), provenance="fold-in")


def fold_in_texts(
    model: LSIModel,
    texts: Sequence[str],
    doc_ids: Sequence[str] | None = None,
) -> LSIModel:
    """Fold raw texts in: tokenize against the model vocabulary first.

    Out-of-vocabulary words are dropped (the existing latent structure has
    no rows for them — adding *terms* requires Eq. 8 or an SVD update).
    """
    if doc_ids is None:
        start = model.n_documents + 1
        doc_ids = [f"D{start + i}" for i in range(len(texts))]
    counts = np.stack(
        [count_vector(tokenize(t), model.vocabulary) for t in texts], axis=1
    )
    return fold_in_documents(model, counts, doc_ids)


def fold_in_terms(
    model: LSIModel,
    counts: np.ndarray,
    terms: Sequence[str],
    global_weights: np.ndarray | None = None,
) -> LSIModel:
    """Fold ``q`` new terms (raw count rows over the n documents) in.

    Each row ``t`` is weighted with the local transform (global weight
    defaults to 1 for a brand-new term) and projected by Eq. 8.
    """
    T, gw = _weight_rows(model, counts, terms, global_weights)
    with span("lsi.fold.terms", q=T.shape[0]):
        # t̂ = t V_k Σ_k⁻¹ for every row at once.
        U_new = (T @ model.V) / model.s
        registry.inc("updating.folded_terms", T.shape[0])
        return model.with_terms(U_new, list(terms), gw, provenance="fold-in")
