"""Tests for the §5.4 applications."""

import numpy as np
import pytest

from repro.apps.crosslanguage import (
    CrossLanguageRetrieval,
    mate_retrieval_accuracy,
)
from repro.apps.noisy import noisy_retrieval_experiment
from repro.apps.people import (
    ReviewerAssignment,
    assign_reviewers,
    find_experts,
    people_vectors,
)
from repro.apps.spelling import SpellingCorrector
from repro.apps.synonyms import run_synonym_test, word_overlap_baseline
from repro.apps.thesaurus import build_thesaurus, suggest_index_terms
from repro.core.build import fit_lsi
from repro.core.query import project_query
from repro.corpus.crosslang import crosslang_collection
from repro.corpus.synonym_test import synonym_test
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.errors import ShapeError
from repro.text.ngrams import char_ngrams
from repro.text.tdm import build_tdm


# --------------------------------------------------------------------- #
# thesaurus
# --------------------------------------------------------------------- #
def test_thesaurus_groups_cluster_terms(med_model):
    th = build_thesaurus(med_model, top=4, terms=["rats"])
    neighbours = [w for w, _ in th["rats"]]
    assert "fast" in neighbours  # the Figure 4 fast/rats cluster


def test_thesaurus_min_similarity_filter(med_model):
    th = build_thesaurus(med_model, top=17, min_similarity=0.99,
                         terms=["oestrogen"])
    assert all(c >= 0.99 for _, c in th["oestrogen"])


def test_suggest_index_terms_includes_unused_terms(med_model):
    """Terms near the document that the text itself never uses can be
    suggested — the point of LSI indexing."""
    suggestions = suggest_index_terms(
        med_model, "oestrogen output of patients", top=6
    )
    words = [w for w, _ in suggestions]
    assert "depressed" in words  # co-cluster of the hormone topics


def _cosines(rows: np.ndarray, target: np.ndarray) -> np.ndarray:
    return rows @ target / (
        np.linalg.norm(rows, axis=1) * np.linalg.norm(target)
    )


def test_suggest_index_terms_weights_like_project_query(med_texts):
    """The document is weighted like every other pseudo-document: on a
    log×entropy model the suggestions' cosines are those of
    ``project_query``'s q̂ (the local log transform once went missing)."""
    model = fit_lsi(med_texts, 2, scheme="log_entropy")
    text = "blood blood blood age abnormalities"
    target = project_query(model, text) * model.s
    want = _cosines(model.term_coordinates(), target)
    got = suggest_index_terms(model, text, top=model.n_terms)
    assert len(got) == model.n_terms
    for term, cos in got:
        np.testing.assert_allclose(
            cos, want[model.vocabulary.id_of(term)], rtol=1e-12
        )


# --------------------------------------------------------------------- #
# cross-language retrieval
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def xl_setup():
    xl = crosslang_collection(seed=13)
    clr = CrossLanguageRetrieval.train(xl, k=24, seed=0)
    return xl, clr


def test_mate_retrieval_both_directions(xl_setup):
    xl, clr = xl_setup
    fr_ids = [f"fr{i}" for i in range(len(xl.french))]
    en_ids = [f"en{i}" for i in range(len(xl.english))]
    acc_ef = mate_retrieval_accuracy(
        clr, xl.english, fr_ids, target_language="fr"
    )
    acc_fe = mate_retrieval_accuracy(
        clr, xl.french, en_ids, target_language="en"
    )
    # Landauer & Littman: cross-language retrieval as effective as
    # monolingual; on the clean generator, mates dominate.
    assert acc_ef > 0.8 and acc_fe > 0.8


def test_cross_language_query_matches_other_language(xl_setup):
    xl, clr = xl_setup
    hits = clr.search(xl.queries_en[0], language="fr", top=3)
    assert all(h.startswith("fr") for h, _ in hits)
    topic_hits = [int(h[2:]) for h, _ in hits]
    assert any(xl.doc_topic[i] == xl.query_topic[0] for i in topic_hits)


def test_mate_retrieval_validation(xl_setup):
    _, clr = xl_setup
    with pytest.raises(ShapeError):
        mate_retrieval_accuracy(clr, ["a"], [], target_language="fr")


# --------------------------------------------------------------------- #
# TOEFL synonym test
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def toefl_setup():
    st = synonym_test(n_items=80, seed=21)
    model = fit_lsi(st.documents, k=40, scheme="log_entropy", seed=0)
    tdm = build_tdm(st.documents)
    return st, model, tdm


def test_lsi_beats_word_overlap_on_synonyms(toefl_setup):
    """§5.4: 'LSI scored 64% correct, compared with 33% correct for
    word-overlap methods' — our synthetic corpus preserves the gap."""
    st, model, tdm = toefl_setup
    lsi = run_synonym_test(model, st)
    overlap = word_overlap_baseline(tdm, st)
    assert lsi.accuracy > 0.55
    assert overlap.accuracy < 0.45
    assert lsi.accuracy > overlap.accuracy + 0.2


def test_synonym_result_format(toefl_setup):
    st, model, _ = toefl_setup
    res = run_synonym_test(model, st)
    assert res.n_items == 80
    assert len(res.choices) == 80
    assert "%" in str(res)


# --------------------------------------------------------------------- #
# people matching
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def people_setup():
    col = topic_collection(
        SyntheticSpec(n_topics=4, docs_per_topic=8, queries_per_topic=1),
        seed=6,
    )
    model = fit_lsi(col.documents, k=8, scheme="log_entropy", seed=0)
    # Reviewer i wrote docs of topic i%4 → their expertise is that topic.
    authored = [
        [t * 8 + 2 * i, t * 8 + 2 * i + 1]
        for t in range(4)
        for i in range(2)
    ]
    vecs = people_vectors(model, authored)
    return col, model, authored, vecs


def test_people_vectors_shape(people_setup):
    col, model, authored, vecs = people_setup
    assert vecs.shape == (8, model.k)
    with pytest.raises(ShapeError):
        people_vectors(model, [[]])
    with pytest.raises(ShapeError):
        people_vectors(model, [[9999]])


def test_find_experts_returns_topic_authors(people_setup):
    col, model, authored, vecs = people_setup
    # Query about topic 0 → the two topic-0 reviewers (indices 0, 1).
    experts = find_experts(model, vecs, col.queries[0], top=2)
    assert {e for e, _ in experts} == {0, 1}


def test_assignment_respects_constraints(people_setup):
    col, model, authored, vecs = people_setup
    asg = assign_reviewers(
        model, vecs, col.queries, reviews_per_paper=2,
        max_papers_per_reviewer=2,
    )
    assert isinstance(asg, ReviewerAssignment)
    assert all(len(r) == 2 for r in asg.assignments)
    assert all(len(set(r)) == 2 for r in asg.assignments)
    load = asg.reviewer_load(8)
    assert load.max() <= 2
    assert load.sum() == 2 * len(col.queries)


def test_assignment_prefers_matching_experts(people_setup):
    col, model, authored, vecs = people_setup
    asg = assign_reviewers(
        model, vecs, col.queries, reviews_per_paper=2,
        max_papers_per_reviewer=4,
    )
    # With slack capacity, paper about topic t gets topic-t reviewers.
    for paper, reviewers in enumerate(asg.assignments):
        expected = {2 * paper, 2 * paper + 1}
        assert set(reviewers) == expected


def test_assignment_infeasible_rejected(people_setup):
    col, model, authored, vecs = people_setup
    with pytest.raises(ShapeError):
        assign_reviewers(
            model, vecs, col.queries, reviews_per_paper=5,
            max_papers_per_reviewer=1,
        )
    with pytest.raises(ShapeError):
        assign_reviewers(
            model, vecs, col.queries, reviews_per_paper=9,
            max_papers_per_reviewer=9,
        )


# --------------------------------------------------------------------- #
# spelling correction
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def corrector():
    lexicon = [
        "culture", "discharge", "patients", "pressure", "abnormalities",
        "depressed", "oestrogen", "generation", "behavior", "disease",
        "blood", "study", "respect", "christmas", "hospital", "kidney",
    ]
    return SpellingCorrector(lexicon, k=12)


def test_spelling_corrects_common_errors(corrector):
    pairs = [
        ("pressre", "pressure"),
        ("cultre", "culture"),
        ("dizease", "disease"),
        ("bloood", "blood"),
        ("hospitl", "hospital"),
    ]
    assert corrector.accuracy(pairs) >= 0.8


def test_spelling_correct_word_is_fixed_point(corrector):
    assert corrector.correct("blood") == "blood"
    assert corrector.correct("culture") == "culture"


def test_spelling_suggest_ranked(corrector):
    sugg = corrector.suggest("pressre", top=3)
    assert len(sugg) == 3
    scores = [c for _, c in sugg]
    assert scores == sorted(scores, reverse=True)


def test_spelling_gibberish_returns_no_matchable_ngrams():
    sc = SpellingCorrector(["alpha", "beta"], k=4)
    # A word sharing no n-grams with the lexicon yields no projection.
    out = sc.suggest("zzzz", top=2)
    assert isinstance(out, list)


def test_spelling_weights_like_project_query(corrector):
    """A word's n-grams are weighted like any query's terms: under
    log×entropy the suggestions' cosines are those of ``project_query``
    over the word's n-grams, and a word sharing no n-gram with the
    lexicon still projects to exact zeros (no suggestions)."""
    sc = SpellingCorrector(corrector.lexicon, k=12, scheme="log_entropy")
    model = sc.model
    for word in ("bloood", "pressre", "hospitl"):
        grams = char_ngrams(word, sc.ngram_sizes)
        target = project_query(model, grams) * model.s
        want = dict(zip(model.doc_ids, _cosines(model.doc_coordinates(), target)))
        got = sc.suggest(word, top=len(sc.lexicon))
        assert len(got) == len(sc.lexicon)
        for w, cos in got:
            np.testing.assert_allclose(cos, want[w], rtol=1e-12)
    assert sc.suggest("zzzz") == []


def test_spelling_validation():
    with pytest.raises(ShapeError):
        SpellingCorrector(["dup", "dup"])
    with pytest.raises(ShapeError):
        SpellingCorrector(["solo"])


# --------------------------------------------------------------------- #
# noisy retrieval
# --------------------------------------------------------------------- #
def test_noisy_experiment_lsi_robust():
    """§5.4: 8.8% word error 'was not disrupted' for LSI."""
    col = topic_collection(
        SyntheticSpec(n_topics=4, docs_per_topic=10, queries_per_topic=2,
                      query_length=3, doc_length=50),
        seed=17,
    )
    res = noisy_retrieval_experiment(col, k=8, word_error_rate=0.088, seed=3)
    assert res["word_error_rate"] == 0.088
    # LSI loses at most a small fraction of its clean performance.
    assert res["lsi_degradation_pct"] > -15
    assert res["clean"]["lsi"]["mean_metric"] > 0.5
