"""Cosine similarity and ranking in the semantic space (§2.2, §3.1).

"The query vector can then be compared to all existing document vectors,
and the documents ranked by their similarity (nearness) to the query. ...
Typically the z closest documents or all documents exceeding some cosine
threshold are returned to the user."

Comparison convention
---------------------
Document positions in the figures are ``V_k Σ_k`` (Fig. 4 uses the columns
of ``V₂`` scaled by the singular values), so the default comparison space
scales both query and documents by ``Σ_k`` ("scaled" mode).  The unscaled
alternative — cosine between ``q̂`` and raw rows of ``V_k`` — is exposed as
``mode="factors"`` for completeness; the paper itself notes the cosine "is
merely used to rank-order documents and its numerical value is not always
an adequate measure of relevance".

Execution
---------
Scoring routes through the serving fast path
(:mod:`repro.serving`): :func:`cosine_similarities` is the q=1 case of
the batched GEMM kernel over ``V_k Σ_k`` (formed per call) with the row
norms from the model's own memo
(:func:`repro.serving.index.scaled_documents`) — the whole fp64 score
vector, for callers that need every score.  The ranked/filtered entry point
(:func:`ranked_documents`, behind :func:`retrieve` and
``LSIRetrieval.search``) is the one exact ranking every serving tier
uses (:func:`repro.serving.scan.ranked_scan`): same indices as the
stable sort of that score vector, scores within 1e-12 of it and
bit-equal to what the server or a shard worker reports for the same
query.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.serving.index import scaled_documents
from repro.serving.kernel import cosine_scores
from repro.serving.scan import ranked_scan
from repro.serving.topk import ranked_pairs, topk_indices

__all__ = [
    "cosine_similarities",
    "rank_documents",
    "ranked_documents",
    "retrieve",
    "term_term_similarities",
    "doc_doc_similarities",
    "nearest_terms",
]


def _served_query(model: LSIModel, qhat: np.ndarray) -> np.ndarray:
    """``qhat`` as a checked length-k fp64 vector, counted as served."""
    qhat = np.asarray(qhat, dtype=np.float64).ravel()
    if qhat.size != model.k:
        raise ShapeError(f"query vector has {qhat.size} dims for k={model.k}")
    registry.inc("serving.queries_served")
    return qhat


def cosine_similarities(
    model: LSIModel, qhat: np.ndarray, *, mode: str = "scaled"
) -> np.ndarray:
    """Cosine of the query pseudo-vector with every document (length n).

    The q=1 case of the batch GEMM path.  ``"scaled"`` compares in
    ``V_k Σ_k`` (its norms memoized on the model); ``"factors"`` compares
    the raw ``q̂`` with the rows of ``V_k``.
    """
    if mode not in ("scaled", "factors"):
        raise ValueError(f"unknown similarity mode {mode!r}")
    qhat = _served_query(model, qhat)
    if mode == "factors":
        return cosine_scores(model.V, qhat)[0]
    scaled = scaled_documents(model)
    return cosine_scores(
        np.multiply(model.V, model.s, order="C"), qhat * model.s,
        norms=scaled.norms, positive=scaled.positive,
    )[0]


def rank_documents(
    model: LSIModel, qhat: np.ndarray, *, mode: str = "scaled"
) -> list[tuple[str, float]]:
    """All documents ranked by descending cosine: ``[(doc_id, cos), ...]``."""
    cos = cosine_similarities(model, qhat, mode=mode)
    order = topk_indices(cos, None)
    return [(model.doc_ids[j], float(cos[j])) for j in order]


def ranked_documents(
    model: LSIModel,
    qhat: np.ndarray,
    *,
    threshold: float | None = None,
    top: int | None = None,
    mode: str = "scaled",
) -> list[tuple[int, float]]:
    """Ranked ``(doc_index, cos)`` pairs under the §3.1 filters.

    ``"scaled"`` is :func:`~repro.serving.scan.ranked_scan` over the
    model's memo — the ranking the serving tiers report, bit for bit.
    ``"factors"`` has no memoized comparison space and ranks its full
    score vector.
    """
    if mode != "scaled":
        cos = cosine_similarities(model, qhat, mode=mode)
        return ranked_pairs(cos, top=top, threshold=threshold)
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
    mode: str = "scaled",
) -> list[tuple[str, float]]:
    """Documents above a cosine threshold and/or the top-z closest.

    Mirrors §3.1: "the z closest documents or all documents exceeding some
    cosine threshold are returned".  Both filters may be combined; they
    are applied as vectorized masks before any Python pairs materialize.
    """
    if threshold is None and top is None:
        raise ValueError("retrieve() needs a threshold, a top count, or both")
    ranked = ranked_documents(
        model, qhat, threshold=threshold, top=top, mode=mode
    )
    return [(model.doc_ids[j], cos) for j, cos in ranked]


# --------------------------------------------------------------------- #
# term-term and document-document structure (thesaurus, synonym test,
# clustering claims of Figures 4/7/8/9)
# --------------------------------------------------------------------- #
def term_term_similarities(model: LSIModel, term: str) -> np.ndarray:
    """Cosine of one term against every term, in scaled term space.

    Term comparisons use rows of ``U_k Σ_k`` — "terms which occur in
    similar documents ... will be near each other in the k-dimensional
    factor space even if they never co-occur".
    """
    coords = model.term_coordinates()
    return cosine_scores(coords, coords[model.vocabulary.id_of(term)])[0]


def doc_doc_similarities(model: LSIModel, doc_id: str) -> np.ndarray:
    """Cosine of one document against every document (scaled space)."""
    coords = model.doc_coordinates()
    return cosine_scores(coords, coords[model.doc_index(doc_id)])[0]


def nearest_terms(
    model: LSIModel, term: str, *, top: int = 10, skip_self: bool = True
) -> list[tuple[str, float]]:
    """The ``top`` terms nearest to ``term`` — the online-thesaurus
    application of §5.4 ("there is no reason that similar terms could not
    be returned")."""
    cos = term_term_similarities(model, term)
    # One extra candidate absorbs the query term itself when it is
    # skipped; selection order matches the historical full stable sort.
    order = topk_indices(cos, top + 1 if skip_self else top)
    out = []
    self_id = model.vocabulary.id_of(term)
    for idx in order:
        if skip_self and idx == self_id:
            continue
        out.append((model.vocabulary[int(idx)], float(cos[idx])))
        if len(out) >= top:
            break
    return out
