"""Cross-cutting behaviours not covered by the per-module suites."""

import numpy as np
import pytest

from repro.core.build import fit_lsi
from repro.core.query import project_query
from repro.core.similarity import cosine_similarities
from repro.errors import ShapeError
from repro.retrieval.engine import LSIRetrieval
from repro.retrieval.keyword import KeywordRetrieval


def test_keyword_engine_empty_query(small_collection):
    kw = KeywordRetrieval.from_texts(small_collection.documents)
    assert np.allclose(kw.scores(""), 0.0)
    assert kw.search("", top=3) == [
        (0, 0.0), (1, 0.0), (2, 0.0)
    ]


def test_lsi_and_keyword_share_weighting_semantics(med_texts):
    """Both engines weight the same query identically (Eq. 5): the LSI
    query vector is the keyword query vector projected by U_kΣ_k⁻¹."""
    from repro.text.parser import ParsingRules

    rules = ParsingRules(min_doc_freq=2)
    lsi = LSIRetrieval.from_texts(
        med_texts, 2, scheme="log_entropy", rules=rules
    )
    kw = KeywordRetrieval.from_texts(
        med_texts, scheme="log_entropy", rules=rules
    )
    q = "age blood abnormalities"
    kw_vec = kw.query_vector(q)
    lsi_vec = lsi.query_vector(q)
    projected = (kw_vec @ lsi.model.U) / lsi.model.s
    assert np.allclose(lsi_vec, projected)


def test_scaled_cosine_invariant_to_column_sign(med_model):
    """Retrieval must not depend on SVD sign conventions: flipping a
    factor's sign in both U and V leaves every cosine unchanged."""
    from dataclasses import replace

    U = med_model.U.copy()
    V = med_model.V.copy()
    U[:, 1] *= -1
    V[:, 1] *= -1
    flipped = replace(med_model, U=U, V=V)
    q = "age blood abnormalities"
    a = cosine_similarities(med_model, project_query(med_model, q))
    b = cosine_similarities(flipped, project_query(flipped, q))
    assert np.allclose(a, b, atol=1e-12)


def test_retrieval_invariant_to_document_order(small_collection):
    """Shuffling the corpus must permute scores, not change them."""
    rng = np.random.default_rng(0)
    perm = rng.permutation(small_collection.n_documents)
    shuffled_docs = [small_collection.documents[int(i)] for i in perm]
    a = LSIRetrieval.from_texts(
        small_collection.documents, 8, scheme="log_entropy", seed=0,
        method="dense",
    )
    b = LSIRetrieval.from_texts(
        shuffled_docs, 8, scheme="log_entropy", seed=0, method="dense"
    )
    q = small_collection.queries[0]
    sa = a.scores_for_vector(a.query_vector(q))
    sb = b.scores_for_vector(b.query_vector(q))
    assert np.allclose(sb, sa[perm], atol=1e-8)


def test_duplicate_documents_get_identical_vectors(med_texts):
    model = fit_lsi(med_texts + [med_texts[0]], 2)
    assert np.allclose(model.V[0], model.V[-1], atol=1e-10)


def test_query_longer_than_any_document(med_model):
    giant = " ".join(med_model.vocabulary.to_list() * 3)
    qhat = project_query(med_model, giant)
    cos = cosine_similarities(med_model, qhat)
    assert np.all(np.isfinite(cos))


def test_single_document_collection():
    model = fit_lsi(["lonely document about rats and fast things"], 1)
    assert model.n_documents == 1
    qhat = project_query(model, "rats")
    assert cosine_similarities(model, qhat)[0] == pytest.approx(1.0)
