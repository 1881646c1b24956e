"""Tests for the synthetic corpus generators."""

import numpy as np
import pytest

from repro.corpus.crosslang import CrossLanguageSpec, crosslang_collection
from repro.corpus.noise import ocr_corrupt, ocr_corrupt_collection
from repro.corpus.synonym_test import synonym_test
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.corpus.trec_like import trec_like_collection


# --------------------------------------------------------------------- #
# topic model
# --------------------------------------------------------------------- #
def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n_topics=0)
    with pytest.raises(ValueError):
        SyntheticSpec(query_synonym_shift=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec(polysemy=-0.1)
    with pytest.raises(ValueError):
        SyntheticSpec(background_rate=1.0)


def test_topic_collection_shape():
    spec = SyntheticSpec(n_topics=3, docs_per_topic=5, queries_per_topic=2)
    col = topic_collection(spec, seed=1)
    assert col.n_documents == 15
    assert col.n_queries == 6
    # every query's relevant set is exactly one topic's documents
    for rel in col.relevance:
        assert len(rel) == 5


def test_topic_collection_deterministic():
    spec = SyntheticSpec(n_topics=2, docs_per_topic=3)
    a = topic_collection(spec, seed=9)
    b = topic_collection(spec, seed=9)
    assert a.documents == b.documents and a.queries == b.queries
    c = topic_collection(spec, seed=10)
    assert a.documents != c.documents


def test_synonyms_share_context_but_not_documents():
    """The structural property LSI exploits: alternate surface forms of
    one concept rarely co-occur in a document."""
    spec = SyntheticSpec(
        n_topics=2, docs_per_topic=20, doc_length=30,
        concepts_per_topic=5, synonyms_per_concept=2,
        background_vocab=0, background_rate=0.0, polysemy=0.0,
    )
    col = topic_collection(spec, seed=3)
    cooccur = 0
    total_docs = 0
    for doc in col.documents:
        words = set(doc.split())
        total_docs += 1
        for w in list(words):
            # counterpart form of the same concept
            if w.endswith("s0") and w[:-1] + "1" in words:
                cooccur += 1
    assert cooccur == 0  # per-document preferred form forbids co-occurrence


def test_no_synonymy_mode():
    spec = SyntheticSpec(n_topics=2, docs_per_topic=3, synonyms_per_concept=1)
    col = topic_collection(spec, seed=0)
    assert all("s0" in w or w.startswith("bg") for w in col.documents[0].split())


def test_query_length_respected():
    spec = SyntheticSpec(n_topics=2, docs_per_topic=3, query_length=4,
                         concepts_per_topic=10)
    col = topic_collection(spec, seed=0)
    assert all(len(q.split()) == 4 for q in col.queries)


# --------------------------------------------------------------------- #
# cross-language
# --------------------------------------------------------------------- #
def test_crosslang_structure():
    xl = crosslang_collection(CrossLanguageSpec(n_topics=3, training_pairs=9,
                                                test_docs_per_language=6), seed=2)
    assert len(xl.combined) == 9
    assert len(xl.english) == len(xl.french) == 6
    assert len(xl.queries_en) == 3
    # Languages have disjoint vocabularies.
    en_words = {w for d in xl.english for w in d.split()}
    fr_words = {w for d in xl.french for w in d.split()}
    assert not en_words & fr_words
    # Combined docs contain both languages.
    both = set(xl.combined[0].split())
    assert any(w.startswith("en") for w in both)
    assert any(w.startswith("fr") for w in both)


def test_crosslang_mates_share_concepts():
    xl = crosslang_collection(seed=5)
    en0 = {w[2:] for w in xl.english[0].split()}
    fr0 = {w[2:] for w in xl.french[0].split()}
    assert en0 == fr0  # identical concept sequences


def test_crosslang_monolingual_collection():
    xl = crosslang_collection(seed=1)
    col = xl.monolingual_collection("en")
    assert col.n_documents == len(xl.english)
    with pytest.raises(ValueError):
        xl.monolingual_collection("de")


def test_crosslang_spec_validation():
    with pytest.raises(ValueError):
        CrossLanguageSpec(n_topics=0)
    with pytest.raises(ValueError):
        CrossLanguageSpec(training_pairs=1)


# --------------------------------------------------------------------- #
# TREC-like
# --------------------------------------------------------------------- #
def test_trec_like_long_queries():
    col = trec_like_collection(n_topics=3, docs_per_topic=4, query_length=50, seed=1)
    assert all(len(q.split()) == 50 for q in col.queries)
    assert col.n_documents == 12


# --------------------------------------------------------------------- #
# OCR noise
# --------------------------------------------------------------------- #
def test_ocr_corrupt_rate():
    text = " ".join(["retrieval"] * 2000)
    out = ocr_corrupt(text, 0.1, seed=7)
    errs = sum(a != b for a, b in zip(text.split(), out.split()))
    assert 140 < errs < 260  # ≈ 200 expected


def test_ocr_corrupt_zero_and_full_rate():
    text = "alpha beta gamma"
    assert ocr_corrupt(text, 0.0, seed=1) == text
    out = ocr_corrupt(text, 1.0, seed=1)
    assert all(a != b for a, b in zip(text.split(), out.split()))


def test_ocr_corrupt_rate_validation():
    with pytest.raises(ValueError):
        ocr_corrupt("x", 1.5)


def test_ocr_corrupt_collection_keeps_judgments(small_collection):
    noisy = ocr_corrupt_collection(small_collection, 0.2, seed=0)
    assert noisy.n_documents == small_collection.n_documents
    assert noisy.relevance == small_collection.relevance
    assert noisy.queries == small_collection.queries
    changed = sum(
        a != b for a, b in zip(noisy.documents, small_collection.documents)
    )
    assert changed > 0


# --------------------------------------------------------------------- #
# synonym test
# --------------------------------------------------------------------- #
def test_synonym_test_structure():
    st = synonym_test(n_items=20, seed=3)
    assert len(st.items) == 20
    for item in st.items:
        assert len(item.alternatives) == 4
        assert 0 <= item.answer < 4
        assert item.stem not in item.alternatives
        # stem and correct answer are forms of the same concept
        stem_concept = item.stem.rsplit("s", 1)[0]
        assert item.alternatives[item.answer].rsplit("s", 1)[0] == stem_concept
        # distractors are not
        for i, alt in enumerate(item.alternatives):
            if i != item.answer:
                assert alt.rsplit("s", 1)[0] != stem_concept


def test_synonym_test_deterministic():
    a = synonym_test(n_items=10, seed=4)
    b = synonym_test(n_items=10, seed=4)
    assert a.items == b.items
    assert a.documents == b.documents
