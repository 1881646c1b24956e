"""Model fitting: texts → matrix → weighting → truncated SVD → model."""

from __future__ import annotations

from typing import Sequence

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.linalg.svd import truncated_svd
from repro.obs.tracing import span
from repro.text.parser import ParsingRules
from repro.text.tdm import TermDocumentMatrix, build_tdm
from repro.weighting.schemes import WeightingScheme, apply_weighting

__all__ = ["fit_lsi", "fit_lsi_from_tdm", "fit_lsi_keeping_tdm"]


def fit_lsi(
    texts: Sequence[str],
    k: int,
    *,
    scheme: WeightingScheme | str | None = None,
    rules: ParsingRules | None = None,
    doc_ids: Sequence[str] | None = None,
    method: str = "auto",
    seed=0,
) -> LSIModel:
    """Fit an LSI model directly from raw document texts.

    Parameters
    ----------
    texts:
        The document collection.
    k:
        Number of factors to retain.  The paper's guidance (§5.2): large
        collections peak around 70-100 (they use 200-300 for TREC); for
        the 14-document example, 2 suffices to illustrate the structure.
    scheme:
        Weighting scheme (``WeightingScheme`` or a name like
        ``"log×entropy"``); default raw × none.
    rules:
        Keyword-selection rules; default indexes every non-stopword.
    method:
        SVD backend (see :func:`repro.linalg.svd.truncated_svd`).
    """
    return fit_lsi_keeping_tdm(
        texts, k, scheme=scheme, rules=rules, doc_ids=doc_ids,
        method=method, seed=seed,
    )[1]


def fit_lsi_keeping_tdm(
    texts: Sequence[str],
    k: int,
    *,
    scheme: WeightingScheme | str | None = None,
    rules: ParsingRules | None = None,
    doc_ids: Sequence[str] | None = None,
    method: str = "auto",
    seed=0,
) -> tuple[TermDocumentMatrix, LSIModel]:
    """:func:`fit_lsi`, also returning the raw term-document matrix it
    parsed — what an index manager keeps to refit from later."""
    with span("lsi.fit", docs=len(texts), k=k):
        with span("lsi.fit.parse", docs=len(texts)):
            tdm = build_tdm(texts, rules, doc_ids=doc_ids)
        model = fit_lsi_from_tdm(
            tdm, k, scheme=scheme, method=method, seed=seed
        )
    return tdm, model


def fit_lsi_from_tdm(
    tdm: TermDocumentMatrix,
    k: int,
    *,
    scheme: WeightingScheme | str | None = None,
    method: str = "auto",
    seed=0,
) -> LSIModel:
    """Fit an LSI model from a pre-built term-document matrix."""
    if isinstance(scheme, str):
        scheme = WeightingScheme.from_name(scheme)
    scheme = scheme or WeightingScheme()
    m, n = tdm.shape
    if not 1 <= k <= min(m, n):
        raise ShapeError(
            f"k={k} must be in [1, min(m, n)={min(m, n)}] for shape {tdm.shape}"
        )
    with span("lsi.fit.weight", scheme=scheme.name):
        weighted = apply_weighting(tdm.matrix, scheme)
    with span("lsi.fit.svd", method=method, k=k, m=m, n=n):
        svd = truncated_svd(weighted.matrix, k, method=method, seed=seed)
    with span("lsi.fit.finalize", k=k):
        vocab = tdm.vocabulary
        if not vocab.frozen:
            vocab.freeze()
        return LSIModel(
            U=svd.U,
            s=svd.s,
            V=svd.V,
            vocabulary=vocab,
            doc_ids=list(tdm.doc_ids),
            scheme=scheme,
            global_weights=weighted.global_weights,
            provenance="svd",
        )
