"""Tests for batched query scoring and the morphology corpus."""

import numpy as np
import pytest

from repro.core.build import fit_lsi
from repro.core.query import batch_project_queries, project_query
from repro.core.similarity import cosine_similarities, term_term_similarities
from repro.corpus.morphology import morphology_corpus
from repro.errors import ShapeError
from repro.server.state import EpochSnapshot


# --------------------------------------------------------------------- #
# batched scoring
# --------------------------------------------------------------------- #
def test_batch_matches_per_query(med_model):
    queries = ["age blood abnormalities", "rats fast", "oestrogen"]
    Q = batch_project_queries(med_model, queries)
    assert Q.shape == (3, med_model.k)
    batched = EpochSnapshot(0, med_model).score_batch(Q)
    for i, q in enumerate(queries):
        single = cosine_similarities(med_model, project_query(med_model, q))
        assert np.allclose(batched[i], single, atol=1e-12)


def test_batch_search_top(med_model):
    snapshot = EpochSnapshot(0, med_model)
    Q = batch_project_queries(med_model, ["age blood abnormalities", "rats"])
    results, _ = snapshot.search(snapshot.scale(Q), top=4)
    assert len(results) == 2
    assert all(len(r) == 4 for r in results)
    for r in results:
        scores = [c for _, c in r]
        assert scores == sorted(scores, reverse=True)


def test_batch_validation(med_model):
    with pytest.raises(ShapeError):
        batch_project_queries(med_model, [])
    with pytest.raises(ShapeError):
        EpochSnapshot(0, med_model).score_batch(np.ones((2, 7)))
    with pytest.raises(ShapeError):
        EpochSnapshot(0, med_model).scale(np.ones((2, 7)))


def test_batch_single_query_vector(med_model):
    qhat = project_query(med_model, "blood")
    out = EpochSnapshot(0, med_model).score_batch(qhat)
    assert out.shape == (1, med_model.n_documents)


# --------------------------------------------------------------------- #
# morphology corpus: the doctor/doctors/doctoral claim
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def morph_model():
    corpus = morphology_corpus(n_families=6, seed=3)
    model = fit_lsi(corpus.documents, k=12, scheme="log_entropy", seed=0)
    return corpus, model


def test_corpus_structure():
    corpus = morphology_corpus(n_families=3, docs_per_context=4, seed=1)
    assert len(corpus.families) == 3
    assert len(corpus.documents) == 3 * 2 * 4
    base, inflection, derivation = corpus.families[0]
    assert inflection == base + "s"
    assert derivation == base + "al"


def test_inflections_near_derivations_far(morph_model):
    """'doctor is quite near doctors but not as similar to doctoral'."""
    corpus, model = morph_model
    for base, inflection, derivation in corpus.families:
        sims = term_term_similarities(model, base)
        v = model.vocabulary
        cos_infl = sims[v.id_of(inflection)]
        cos_deriv = sims[v.id_of(derivation)]
        assert cos_infl > 0.8, (base, cos_infl)
        assert cos_infl > cos_deriv + 0.3, (base, cos_infl, cos_deriv)


def test_inflections_rarely_cooccur(morph_model):
    """The corpus realizes the premise: base and inflection share
    contexts without sharing documents."""
    corpus, model = morph_model
    base, inflection, _ = corpus.families[0]
    both = sum(
        1 for doc in corpus.documents
        if base in doc.split() and inflection in doc.split()
    )
    assert both == 0


def test_no_stemming_needed(morph_model):
    """The tokenizer keeps all three forms distinct (no stemming), yet
    retrieval by the base form finds inflection-form documents."""
    corpus, model = morph_model
    base, inflection, _ = corpus.families[0]
    qhat = project_query(model, base)
    cos = cosine_similarities(model, qhat)
    ranked = np.argsort(-cos)
    top_docs = [corpus.documents[int(i)] for i in ranked[:10]]
    assert any(inflection in d.split() for d in top_docs)
