"""Tests for the retrieval engines, feedback, and filtering."""

import numpy as np
import pytest

from repro.corpus.med import MED_QUERY
from repro.errors import ShapeError
from repro.retrieval.engine import LSIRetrieval
from repro.retrieval.feedback import mean_relevant_query, rocchio
from repro.retrieval.filtering import FilteringProfile, stream_filter
from repro.retrieval.keyword import KeywordRetrieval
from repro.sparse.build import from_dense
from repro.text.parser import ParsingRules
from repro.text.tdm import TermDocumentMatrix, build_tdm
from repro.text.vocabulary import Vocabulary

#: What the evaluation harness needs from an engine (duck-typed).
ENGINE_SURFACE = ("name", "n_documents", "search")


# --------------------------------------------------------------------- #
# keyword engine
# --------------------------------------------------------------------- #
def test_keyword_scores_shape(small_collection):
    kw = KeywordRetrieval.from_texts(small_collection.documents)
    s = kw.scores(small_collection.queries[0])
    assert s.shape == (small_collection.n_documents,)
    assert np.all(s >= -1e-12) and np.all(s <= 1 + 1e-12)


def test_keyword_exact_match_scores_one():
    kw = KeywordRetrieval.from_texts(["apple banana", "cherry durian"])
    top = kw.search("apple banana", top=1)
    assert top[0][1] == pytest.approx(1.0)
    assert top[0][0] == 0


def test_keyword_disjoint_query_scores_zero():
    kw = KeywordRetrieval.from_texts(["apple banana", "cherry"])
    assert np.allclose(kw.scores("zebra xylophone"), 0.0)


def test_keyword_search_filters(small_collection):
    kw = KeywordRetrieval.from_texts(small_collection.documents)
    q = small_collection.queries[0]
    assert len(kw.search(q, top=5)) == 5
    thr = kw.search(q, threshold=0.5)
    assert all(c >= 0.5 for _, c in thr)


def test_keyword_matching_documents_boolean():
    kw = KeywordRetrieval.from_texts(["apple pie", "banana split", "apple cake"])
    assert kw.matching_documents("apple") == {0, 2}
    assert kw.matching_documents("zzz") == set()


def _dense_matching_set(matrix, term_ids):
    """Columns with a nonzero on any of ``term_ids``, from the dense form."""
    return set(np.flatnonzero(matrix.to_dense()[term_ids].any(axis=0)).tolist())


def test_keyword_matching_documents_equals_dense_set(med_texts):
    """Fig. 6's lexical set on MED, and every single- and multi-term query
    over a vocabulary, equal the set read off the dense matrix."""
    kw = KeywordRetrieval(build_tdm(med_texts, ParsingRules(min_doc_freq=2)))
    vocab = kw.tdm.vocabulary
    ids = [vocab.get(t) for t in MED_QUERY.split() if vocab.get(t) is not None]
    assert kw.matching_documents(MED_QUERY) == _dense_matching_set(
        kw.tdm.matrix, ids
    ) == {0, 7, 9, 10, 11}
    terms = vocab.to_list()
    for t, term in enumerate(terms):
        assert kw.matching_documents([term]) == _dense_matching_set(
            kw.tdm.matrix, [t]
        )
    assert kw.matching_documents(terms[::3]) == _dense_matching_set(
        kw.tdm.matrix, list(range(0, len(terms), 3))
    )


def test_keyword_matching_documents_empty_rows_and_columns(rng):
    counts = np.floor(rng.random((20, 15)) * 3) * (rng.random((20, 15)) < 0.25)
    counts[[3, 8, 9]] = 0.0  # terms in no document
    counts[:, [0, 6, 14]] = 0.0  # documents with no term
    vocab = Vocabulary([f"t{i}" for i in range(20)]).freeze()
    tdm = TermDocumentMatrix(from_dense(counts), vocab, [f"d{j}" for j in range(15)])
    kw = KeywordRetrieval(tdm)
    for query in (["t3"], ["t3", "t8"], ["t0", "t9", "t19"], ["t5", "zzz"],
                  [f"t{i}" for i in range(20)], []):
        ids = [vocab.get(t) for t in query if vocab.get(t) is not None]
        assert kw.matching_documents(query) == _dense_matching_set(
            tdm.matrix, ids
        ), query


def test_keyword_conforms_to_protocol(small_collection):
    kw = KeywordRetrieval.from_texts(small_collection.documents)
    assert all(hasattr(kw, attr) for attr in ENGINE_SURFACE)


# --------------------------------------------------------------------- #
# LSI engine
# --------------------------------------------------------------------- #
def test_lsi_engine_basics(small_collection, small_lsi):
    eng = LSIRetrieval(small_lsi)
    assert all(hasattr(eng, attr) for attr in ENGINE_SURFACE)
    assert eng.n_documents == small_collection.n_documents
    assert eng.model.k == 8
    s = eng.scores_for_vector(eng.query_vector(small_collection.queries[0]))
    assert s.shape == (small_collection.n_documents,)


def test_lsi_from_texts(small_collection):
    eng = LSIRetrieval.from_texts(small_collection.documents, 6)
    assert eng.model.k == 6


def test_lsi_with_k_truncates(small_collection, small_lsi):
    eng = LSIRetrieval(small_lsi)
    eng4 = eng.with_k(4)
    assert eng4.model.k == 4
    # Rankings differ in general between k=8 and k=4.
    q = small_collection.queries[0]
    assert not np.allclose(
        eng.scores_for_vector(eng.query_vector(q)),
        eng4.scores_for_vector(eng4.query_vector(q)),
    )


def test_lsi_unknown_query_words_score_zero(small_lsi):
    ranked = LSIRetrieval(small_lsi).search("qqq www zzz")
    assert [score for _, score in ranked] == [0.0] * small_lsi.n_documents


def test_lsi_beats_keyword_under_synonymy(small_collection, small_lsi):
    """The §5.1 core claim on the synthetic collection."""
    from repro.evaluation.harness import compare_engines

    lsi = LSIRetrieval(small_lsi)
    kw = KeywordRetrieval.from_texts(
        small_collection.documents, scheme="log_entropy"
    )
    cmp = compare_engines(lsi, kw, small_collection)
    assert cmp.improvement_pct > 0


# --------------------------------------------------------------------- #
# relevance feedback
# --------------------------------------------------------------------- #
def test_replace_with_relevant_places_query_on_document(small_lsi):
    q2 = mean_relevant_query(small_lsi, [3, 5], first=1)
    # the new query is exactly document 3's position (up to Σ scaling)
    assert np.allclose(q2 * small_lsi.s, small_lsi.V[3] * small_lsi.s)


def test_mean_relevant_query_first_three(small_lsi):
    q3 = mean_relevant_query(small_lsi, [0, 1, 2, 3, 4], first=3)
    manual = (small_lsi.V[:3] * small_lsi.s).mean(axis=0) / small_lsi.s
    assert np.allclose(q3, manual)


def test_feedback_validation(small_lsi):
    with pytest.raises(ShapeError):
        mean_relevant_query(small_lsi, [])
    with pytest.raises(ShapeError):
        mean_relevant_query(small_lsi, [10_000])


def test_feedback_improves_retrieval():
    """Replacing the query with relevant documents must improve the
    paper's metric on average (the +33%/+67% §5.1 claim, direction).

    Uses a deliberately hard collection (single-word queries, maximal
    synonym shift) so the baseline is off the ceiling and improvement is
    measurable.
    """
    from repro.core.build import fit_lsi
    from repro.corpus.synthetic import SyntheticSpec, topic_collection
    from repro.evaluation.metrics import three_point_average_precision

    col = topic_collection(
        SyntheticSpec(
            n_topics=6, docs_per_topic=12, doc_length=30,
            concepts_per_topic=12, synonyms_per_concept=4,
            queries_per_topic=2, query_length=1, query_synonym_shift=1.0,
            polysemy=0.3, background_vocab=30, background_rate=0.3,
        ),
        seed=11,
    )
    model = fit_lsi(col.documents, k=10, scheme="log_entropy", seed=0)
    eng = LSIRetrieval(model)
    base_scores, fb_scores = [], []
    for qi, query in enumerate(col.queries):
        rel = sorted(col.relevant(qi))
        base_rank = [j for j, _ in eng.search(query)]
        base_scores.append(
            three_point_average_precision(base_rank, set(rel))
        )
        qfb = mean_relevant_query(model, rel, first=3)
        fb_rank = [
            j for j, _ in sorted(
                enumerate(eng.scores_for_vector(qfb)), key=lambda t: -t[1]
            )
        ]
        fb_scores.append(three_point_average_precision(fb_rank, set(rel)))
    assert np.mean(base_scores) < 0.999  # baseline genuinely off-ceiling
    assert np.mean(fb_scores) > np.mean(base_scores)


def test_rocchio_moves_toward_relevant(small_collection, small_lsi):
    from repro.core.query import project_query

    q = project_query(small_lsi, small_collection.queries[0])
    rel = sorted(small_collection.relevant(0))[:3]
    q2 = rocchio(small_lsi, q, rel, alpha=0.0, beta=1.0)
    expected = mean_relevant_query(small_lsi, rel)
    assert np.allclose(q2, expected)
    with pytest.raises(ShapeError):
        rocchio(small_lsi, np.ones(3), rel)


def test_rocchio_negative_feedback_moves_away(small_lsi):
    from repro.core.similarity import cosine_similarities

    q = small_lsi.V[0].copy()
    nonrel = [5]
    q2 = rocchio(small_lsi, q, [], nonrelevant=nonrel, alpha=1.0, gamma=0.5)
    before = cosine_similarities(small_lsi, q)[5]
    after = cosine_similarities(small_lsi, q2)[5]
    assert after < before


# --------------------------------------------------------------------- #
# filtering
# --------------------------------------------------------------------- #
def test_profile_from_query_and_from_documents(small_collection, small_lsi):
    p1 = FilteringProfile.from_query(small_lsi, small_collection.queries[0])
    assert p1.vector.shape == (small_lsi.k,)
    rel = sorted(small_collection.relevant(0))[:3]
    p2 = FilteringProfile.from_relevant_documents(small_lsi, rel)
    assert p2.vector.shape == (small_lsi.k,)
    with pytest.raises(ShapeError):
        FilteringProfile.from_relevant_documents(small_lsi, [])
    with pytest.raises(ShapeError):
        FilteringProfile(small_lsi, np.ones(3))


def test_stream_filter_ranks_relevant_first(small_collection, small_lsi):
    rel = sorted(small_collection.relevant(0))
    profile = FilteringProfile.from_relevant_documents(small_lsi, rel[:3])
    # Stream = the collection's own documents; relevant ones must surface.
    ranked = stream_filter(profile, small_collection.documents)
    top10 = {i for i, _ in ranked[:10]}
    assert len(top10 & set(rel)) >= 5


def test_stream_filter_threshold(small_collection, small_lsi):
    profile = FilteringProfile.from_query(
        small_lsi, small_collection.queries[0]
    )
    recs = stream_filter(
        profile, small_collection.documents, threshold=0.9
    )
    assert all(c >= 0.9 for _, c in recs)


def test_relevant_doc_profile_beats_query_profile(small_collection, small_lsi):
    """Dumais & Foltz: profiles from known relevant documents are the
    most effective representation."""
    from repro.evaluation.metrics import average_precision

    def ap_for(profile, qi):
        ranked = stream_filter(profile, small_collection.documents)
        return average_precision(
            [i for i, _ in ranked], small_collection.relevant(qi)
        )

    gains = []
    for qi, query in enumerate(small_collection.queries):
        rel = sorted(small_collection.relevant(qi))
        pq = FilteringProfile.from_query(small_lsi, query)
        pd = FilteringProfile.from_relevant_documents(small_lsi, rel[:3])
        gains.append(ap_for(pd, qi) - ap_for(pq, qi))
    assert np.mean(gains) > 0
