"""Tests for query projection (Eq. 6) and similarity ranking."""

import numpy as np
import pytest

from repro.core.model import LSIModel
from repro.core.query import project_query, project_terms, query_terms
from repro.core.similarity import (
    cosine_similarities,
    nearest_terms,
    rank_documents,
    retrieve,
    term_cosines,
)
from repro.errors import ShapeError
from repro.text.tdm import count_vector
from repro.text.tokenizer import tokenize
from repro.weighting.local import LOCAL_WEIGHTS, NEEDS_COL_MAX, local_weight


def test_query_counts_drops_unindexed_words(med_model):
    ids, counts = query_terms(
        med_model, "age of children with blood abnormalities"
    )
    vocab = med_model.vocabulary
    terms = ("abnormalities", "age", "blood")
    assert ids.tolist() == sorted(vocab.id_of(t) for t in terms)
    assert counts.tolist() == [1.0, 1.0, 1.0]  # of / children / with dropped


def test_query_counts_accepts_token_list(med_model):
    ids, counts = query_terms(med_model, ["age", "blood", "age"])
    assert counts.sum() == 3
    assert counts[ids.tolist().index(med_model.vocabulary.id_of("age"))] == 2


def _dense_weighted(model, query):
    """The query's weighted length-m vector, built densely: the form the
    gathered projection replaces, kept here as its oracle."""
    counts = count_vector(tokenize(query), model.vocabulary)
    local = model.scheme.local
    if local in NEEDS_COL_MAX:
        cmax = np.full_like(counts, max(counts.max(), 1.0))
        weighted = local_weight(local, counts, cmax)
    else:
        weighted = local_weight(local, counts)
    return weighted * model.global_weights


def test_eq6_projection_formula(med_model, med_texts):
    """q̂ = qᵀ U_k Σ_k⁻¹, verified against the dense algebra under every
    local weight (entropy global weights, so G is not all ones)."""
    from repro.core.build import fit_lsi

    query = "blood blood age abnormalities of children"
    models = [med_model] + [
        fit_lsi(med_texts, 2, scheme=f"{local}_entropy")
        for local in sorted(LOCAL_WEIGHTS)
    ]
    for model in models:
        qhat = project_query(model, query)
        expected = (_dense_weighted(model, query) @ model.U) / model.s
        np.testing.assert_allclose(qhat, expected, rtol=0, atol=1e-12)


def test_eq6_token_order_and_duplicates_are_bit_identical(med_texts):
    from repro.core.build import fit_lsi

    model = fit_lsi(med_texts, 2, scheme="log_entropy")
    qhat = project_query(model, "blood age blood abnormalities")
    for tokens in (
        ["abnormalities", "blood", "age", "blood"],
        ["blood", "blood", "abnormalities", "age", "unindexed"],
    ):
        assert np.array_equal(project_query(model, tokens), qhat)


def test_eq6_all_oov_query_is_exact_zero(med_model):
    ids, counts = query_terms(med_model, "of with zzz")
    assert ids.size == counts.size == 0
    qhat = project_query(med_model, "of with zzz")
    assert qhat.shape == (med_model.k,)
    assert not np.any(qhat)


def test_eq6_refuses_a_zero_singular_value(med_model):
    model = LSIModel(
        med_model.U, np.array([med_model.s[0], 0.0]), med_model.V,
        med_model.vocabulary, med_model.doc_ids,
    )
    with pytest.raises(ShapeError):
        project_query(model, "blood age")


def test_pseudo_document_validation(med_model):
    with pytest.raises(ShapeError):
        project_terms(med_model, np.array([0, 1]), np.ones(3))
    with pytest.raises(ShapeError):
        project_terms(med_model, np.array([med_model.n_terms]), np.ones(1))
    with pytest.raises(ShapeError):
        project_terms(med_model, np.array([-1]), np.ones(1))


def test_query_is_weighted_like_documents(med_texts):
    from repro.core.build import fit_lsi

    model = fit_lsi(med_texts, 2, scheme="log_entropy")
    qhat = project_query(model, "blood blood blood")
    # Raw projection with unweighted counts differs (log damping).
    ids, counts = query_terms(model, "blood blood blood")
    U, g = model.U[ids], model.global_weights[ids]
    raw = (counts * g @ U) / model.s
    logged = (np.log2(counts + 1) * g @ U) / model.s
    assert np.allclose(qhat, logged)
    assert not np.allclose(qhat, raw)


def test_cosine_similarities_range_and_shape(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    scaled = cosine_similarities(med_model, qhat)
    assert scaled.shape == (14,)
    assert np.all(scaled <= 1 + 1e-12) and np.all(scaled >= -1 - 1e-12)
    with pytest.raises(ShapeError):
        cosine_similarities(med_model, np.ones(5))


def test_rank_documents_sorted(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    ranked = rank_documents(med_model, qhat)
    assert len(ranked) == 14
    cosines = [c for _, c in ranked]
    assert cosines == sorted(cosines, reverse=True)


def test_rank_documents_is_the_serving_ranking_bit_for_bit(med_model):
    """``rank_documents`` is the unfiltered ``ranked_documents``: its
    first z pairs are ``retrieve``'s top z (an fp32 cut, then row-local
    rescoring) to the last bit, in the stable order of the full-width
    fp64 scores and within 1e-12 of them."""
    from repro.text.vocabulary import Vocabulary

    rng = np.random.default_rng(7)
    n, k = 600, 24
    vocab = Vocabulary(f"t{i}" for i in range(k))
    vocab.freeze()
    wide = LSIModel(
        U=np.eye(k), s=np.sort(rng.random(k) + 0.5)[::-1].copy(),
        V=rng.standard_normal((n, k)), vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(n)],
    )
    medline = [project_query(med_model, "age blood abnormalities")]
    for model, queries in ((med_model, medline),
                           (wide, rng.standard_normal((20, k)))):
        for qhat in queries:
            ranked = rank_documents(model, qhat)
            z = 5
            assert [(d, c.hex()) for d, c in ranked[:z]] == [
                (d, c.hex()) for d, c in retrieve(model, qhat, top=z)
            ]
            cos = cosine_similarities(model, qhat)
            order = np.argsort(-cos, kind="stable")
            assert [d for d, _ in ranked] == [model.doc_ids[j] for j in order]
            np.testing.assert_allclose(
                [c for _, c in ranked], cos[order], rtol=0, atol=1e-12
            )


def test_retrieve_threshold_and_top(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    by_threshold = retrieve(med_model, qhat, threshold=0.85)
    assert all(c >= 0.85 for _, c in by_threshold)
    top3 = retrieve(med_model, qhat, top=3)
    assert len(top3) == 3
    both = retrieve(med_model, qhat, threshold=0.85, top=2)
    assert len(both) <= 2
    with pytest.raises(ValueError):
        retrieve(med_model, qhat)


def test_zero_query_scores_zero(med_model):
    qhat = np.zeros(2)
    cos = cosine_similarities(med_model, qhat)
    assert np.allclose(cos, 0.0)


def test_term_term_similarity_self_is_one(med_model):
    idx = med_model.vocabulary.id_of("blood")
    assert term_cosines(med_model, "blood", [idx])[0] == pytest.approx(1.0)
    (nearest,) = nearest_terms(med_model, "blood", top=1, skip_self=False)
    assert nearest[1] == pytest.approx(1.0)


def test_doc_doc_similarity(med_model):
    # A document's own row, as a query, is the query by example.
    own = med_model.V[med_model.doc_index("M13")]
    sims = dict(rank_documents(med_model, own))
    assert sims["M13"] == pytest.approx(1.0)
    # M14 shares the fast/rats cluster with M13 (Figure 4).
    assert sims["M14"] > 0.9


def test_nearest_terms_skips_self(med_model):
    out = nearest_terms(med_model, "oestrogen", top=5)
    assert len(out) == 5
    assert all(w != "oestrogen" for w, _ in out)
    out2 = nearest_terms(med_model, "oestrogen", top=3, skip_self=False)
    assert out2[0][0] == "oestrogen"
