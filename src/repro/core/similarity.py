"""Cosine similarity and ranking in the semantic space (§2.2, §3.1).

"The query vector can then be compared to all existing document vectors,
and the documents ranked by their similarity (nearness) to the query. ...
Typically the z closest documents or all documents exceeding some cosine
threshold are returned to the user."

Comparison convention
---------------------
Document positions in the figures are ``V_k Σ_k`` (Fig. 4 uses the columns
of ``V₂`` scaled by the singular values), so queries and documents are
compared in that one space: both scaled by ``Σ_k``, the space every
serving tier ranks in.  There is no other: the paper itself notes the
cosine "is merely used to rank-order documents and its numerical value
is not always an adequate measure of relevance".

Execution
---------
Every score reads one of the model's two memos
(:mod:`repro.serving.index`): ``V_k Σ_k`` for documents, ``U_k Σ_k``
for terms.  A ranking is :func:`~repro.serving.scan.ranked_scan` of one,
the exact ranking every serving tier uses — :func:`ranked_documents`
(behind :func:`rank_documents`, :func:`retrieve` and
``LSIRetrieval.search``) and :func:`nearest_rows` (the neighbours of its
own rows: :func:`nearest_terms`, the thesaurus, query by example): the
same indices as the stable sort of the fp64 score vector, scores within
1e-12 of it.  :func:`cosine_similarities` is that whole vector, formed
block by block (:func:`~repro.serving.scan.all_cosines`), for callers
that read every score; :func:`term_cosines` reads a few term scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.serving.index import ScaledRows, scaled_documents, scaled_terms
from repro.serving.kernel import SCAN_WIDTH, row_cosines
from repro.serving.scan import all_cosines, ranked_scan

__all__ = [
    "cosine_similarities",
    "rank_documents",
    "ranked_documents",
    "retrieve",
    "nearest_rows",
    "nearest_terms",
    "term_cosines",
]


def _served_query(model: LSIModel, qhat: np.ndarray) -> np.ndarray:
    """``qhat`` as a checked length-k fp64 vector, counted as served."""
    qhat = np.asarray(qhat, dtype=np.float64).ravel()
    if qhat.size != model.k:
        raise ShapeError(f"query vector has {qhat.size} dims for k={model.k}")
    registry.inc("serving.queries_served")
    return qhat


def cosine_similarities(model: LSIModel, qhat: np.ndarray) -> np.ndarray:
    """Cosine of the query pseudo-vector with every document (length n):
    one GEMV per row block of ``V_k Σ_k``, the same bits as one over the
    whole product."""
    qhat = _served_query(model, qhat)
    return all_cosines(scaled_documents(model), (qhat * model.s)[None, :])[0]


def rank_documents(
    model: LSIModel, qhat: np.ndarray
) -> list[tuple[str, float]]:
    """All documents ranked by descending cosine: ``[(doc_id, cos), ...]``
    — the unfiltered :func:`ranked_documents`, so each score is the bits
    :func:`retrieve` and every serving tier report for that row."""
    ranked = ranked_documents(model, qhat)
    return [(model.doc_ids[j], cos) for j, cos in ranked]


def ranked_documents(
    model: LSIModel,
    qhat: np.ndarray,
    *,
    threshold: float | None = None,
    top: int | None = None,
) -> list[tuple[int, float]]:
    """Ranked ``(doc_index, cos)`` pairs under the §3.1 filters:
    :func:`~repro.serving.scan.ranked_scan` over the model's memo — the
    ranking the serving tiers report, bit for bit."""
    qhat = _served_query(model, qhat)
    return ranked_scan(
        scaled_documents(model), (qhat * model.s)[None, :], [top], [threshold]
    )[0]


def retrieve(
    model: LSIModel,
    qhat: np.ndarray,
    *,
    threshold: float | None = None,
    top: int | None = None,
) -> list[tuple[str, float]]:
    """Documents above a cosine threshold and/or the top-z closest.

    Mirrors §3.1: "the z closest documents or all documents exceeding some
    cosine threshold are returned".  Both filters may be combined; they
    are applied as vectorized masks before any Python pairs materialize.
    """
    if threshold is None and top is None:
        raise ValueError("retrieve() needs a threshold, a top count, or both")
    ranked = ranked_documents(model, qhat, threshold=threshold, top=top)
    return [(model.doc_ids[j], cos) for j, cos in ranked]


# --------------------------------------------------------------------- #
# term-term and document-document structure (thesaurus, synonym test,
# query by example)
# --------------------------------------------------------------------- #
def nearest_rows(
    scaled: ScaledRows,
    rows: Sequence[int],
    *,
    top: int,
    skip_self: bool = True,
) -> list[list[tuple[int, float]]]:
    """The ``top`` rows of ``scaled`` nearest to each of its own ``rows``,
    as ranked ``(row, cosine)`` pairs: one :func:`ranked_scan` per
    :data:`~repro.serving.kernel.SCAN_WIDTH` of them.

    ``skip_self`` leaves each row's own index out of its list (a
    duplicate of the row stays); one extra candidate absorbs it.
    """
    extra = 1 if skip_self else 0
    out = []
    for at in range(0, len(rows), SCAN_WIDTH):
        flush = list(rows[at:at + SCAN_WIDTH])
        ranked = ranked_scan(
            scaled, scaled.V[flush] * scaled.s,
            [top + extra] * len(flush), [None] * len(flush),
        )
        out += [
            [(j, c) for j, c in pairs if not (skip_self and j == i)][:top]
            for i, pairs in zip(flush, ranked)
        ]
    return out


def nearest_terms(
    model: LSIModel, term: str, *, top: int = 10, skip_self: bool = True
) -> list[tuple[str, float]]:
    """The ``top`` terms nearest to ``term`` — the online-thesaurus
    application of §5.4 ("there is no reason that similar terms could not
    be returned").

    Terms are compared as rows of ``U_k Σ_k`` — "terms which occur in
    similar documents ... will be near each other in the k-dimensional
    factor space even if they never co-occur".
    """
    (ranked,) = nearest_rows(
        scaled_terms(model), [model.vocabulary.id_of(term)],
        top=top, skip_self=skip_self,
    )
    return [(model.vocabulary[j], c) for j, c in ranked]


def term_cosines(
    model: LSIModel, term: str, rows: Sequence[int]
) -> np.ndarray:
    """Cosine of ``term`` with the terms at vocabulary ``rows`` — the
    row-local kernel at those rows of the term memo, for callers that
    read a few term-term scores."""
    terms = scaled_terms(model)
    q = model.U[model.vocabulary.id_of(term)] * model.s
    return row_cosines(
        terms.V, terms.s, terms.norms, q, np.asarray(rows, dtype=np.intp)
    )
