"""Tests for manager term additions."""

import numpy as np
import pytest

from repro.corpus import SyntheticSpec, topic_collection
from repro.errors import ShapeError
from repro.text import ParsingRules, build_tdm
from repro.updating import LSIIndexManager


# --------------------------------------------------------------------- #
# manager term additions
# --------------------------------------------------------------------- #
@pytest.fixture
def mgr():
    col = topic_collection(
        SyntheticSpec(n_topics=3, docs_per_topic=10, doc_length=25,
                      concepts_per_topic=8, queries_per_topic=1),
        seed=52,
    )
    tdm = build_tdm(col.documents, ParsingRules())
    return LSIIndexManager(tdm, k=6)


def test_add_terms_extends_everything(mgr):
    n = mgr.tdm.n_documents
    m0 = mgr.model.n_terms
    rows = np.zeros((2, n))
    rows[0, :5] = 1.0
    rows[1, 5:10] = 2.0
    event = mgr.add_terms(rows, ["neologism", "jargon"])
    assert event.action == "svd-update"
    assert mgr.model.n_terms == m0 + 2
    assert "neologism" in mgr.model.vocabulary
    assert mgr.tdm.n_terms == m0 + 2
    assert mgr.drift() < 1e-8


def test_add_terms_consolidates_pending_first(mgr):
    texts = ["t0c0s0 t0c1s0 t0c2s0"]
    mgr.add_texts(texts)
    assert mgr.pending == 1
    rows = np.ones((1, mgr.tdm.n_documents + 1))  # after consolidation n+1
    event = mgr.add_terms(rows, ["everywhere"])
    assert mgr.pending == 0
    assert "everywhere" in mgr.model.vocabulary


def test_add_terms_validation(mgr):
    with pytest.raises(ShapeError):
        mgr.add_terms(np.ones((1, 3)), ["x"])


def test_added_terms_are_queryable(mgr):
    from repro.core import project_query
    from repro.core.similarity import cosine_similarities

    n = mgr.tdm.n_documents
    rows = np.zeros((1, n))
    rows[0, :3] = 3.0  # tied to topic-0 documents (indices 0..9)
    mgr.add_terms(rows, ["brandnew"])
    qhat = project_query(mgr.model, "brandnew")
    cos = cosine_similarities(mgr.model, qhat)
    # The new term lands in topic 0's latent direction: its best match
    # is a topic-0 document and topic 0 dominates other topics on average.
    assert int(np.argmax(cos)) < 10
    assert cos[:10].mean() > cos[10:].mean() + 0.2

