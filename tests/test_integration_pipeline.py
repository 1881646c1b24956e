"""Cross-module integration tests: full pipelines as a user runs them."""

import numpy as np
import pytest

from repro.core.build import fit_lsi
from repro.core.query import project_query
from repro.core.similarity import retrieve
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.evaluation.harness import compare_engines, evaluate_run, run_engine
from repro.retrieval.engine import LSIRetrieval
from repro.retrieval.keyword import KeywordRetrieval
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.text.tdm import build_tdm, count_vector
from repro.text.tokenizer import tokenize
from repro.updating.folding import fold_in_texts
from repro.updating.manager import LSIIndexManager
from repro.updating.svd_update import update_documents


@pytest.fixture(scope="module")
def pipeline_collection():
    return topic_collection(
        SyntheticSpec(
            n_topics=5, docs_per_topic=12, doc_length=35,
            concepts_per_topic=10, synonyms_per_concept=3,
            queries_per_topic=2, query_length=2, query_synonym_shift=0.8,
        ),
        seed=77,
    )


def test_full_pipeline_fit_query_update_persist(pipeline_collection, tmp_path):
    col = pipeline_collection
    train = col.documents[:-6]
    later = col.documents[-6:]

    # fit
    model = fit_lsi(train, k=10, scheme="log_entropy", seed=0)
    assert model.k == 10

    # query
    qhat = project_query(model, col.queries[0])
    hits = retrieve(model, qhat, top=5)
    assert len(hits) == 5

    # incremental growth: fold, then a real SVD-update
    folded = fold_in_texts(model, later[:3])
    assert folded.n_documents == model.n_documents + 3
    counts = np.stack(
        [count_vector(tokenize(t), model.vocabulary) for t in later[3:]],
        axis=1,
    )
    updated = update_documents(folded, counts, ["u1", "u2", "u3"])
    assert updated.n_documents == model.n_documents + 6

    # persist → grow through the store → reload → identical ranking
    manager = LSIIndexManager(build_tdm(train), k=10, scheme="log_entropy")
    assert np.array_equal(manager.model.V, model.V)
    store = DurableIndexStore.initialize(tmp_path / "db", manager)
    store.add_texts(later[:3])
    store.add_texts(later[3:])
    store.close(flush=True)
    live = manager.model
    assert live.n_documents == model.n_documents + 6
    reloaded = open_checkpoint(tmp_path / "db").model()
    assert np.array_equal(reloaded.V, live.V)
    q2 = project_query(reloaded, col.queries[1])
    assert retrieve(reloaded, q2, top=3) == retrieve(live, q2, top=3)


def test_update_then_query_sees_new_documents(pipeline_collection):
    """A document about topic T folded in after fitting must be
    retrievable by a topic-T query."""
    col = pipeline_collection
    rel0 = sorted(col.relevant(0))
    held_out = col.documents[rel0[-1]]
    train = [d for i, d in enumerate(col.documents) if i != rel0[-1]]
    model = fit_lsi(train, k=10, scheme="log_entropy", seed=0)
    grown = fold_in_texts(model, [held_out], doc_ids=["HELD-OUT"])
    qhat = project_query(grown, col.queries[0])
    top_ids = [d for d, _ in retrieve(grown, qhat, top=8)]
    assert "HELD-OUT" in top_ids


def test_evaluation_pipeline_end_to_end(pipeline_collection):
    col = pipeline_collection
    lsi = LSIRetrieval.from_texts(
        col.documents, 10, scheme="log_entropy", seed=0
    )
    kw = KeywordRetrieval.from_texts(col.documents, scheme="log_entropy")
    cmp = compare_engines(lsi, kw, col)
    assert 0 <= cmp.baseline["mean_metric"] <= 1
    assert 0 <= cmp.candidate["mean_metric"] <= 1
    assert cmp.candidate["mean_metric"] >= cmp.baseline["mean_metric"] - 0.05
    res = evaluate_run(run_engine(lsi, col), col)
    assert len(res["per_query"]) == col.n_queries


def test_public_api_surface():
    """Everything advertised in repro.__all__ is importable and real."""
    import repro

    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_k_sweep_consistency(pipeline_collection):
    """Truncating a big model must equal fitting a small one (dense
    backend, same data ⇒ same leading singular subspace)."""
    col = pipeline_collection
    big = fit_lsi(col.documents, k=12, scheme="log_entropy", method="dense")
    small = fit_lsi(col.documents, k=5, scheme="log_entropy", method="dense")
    assert np.allclose(big.truncated(5).s, small.s, atol=1e-8)
