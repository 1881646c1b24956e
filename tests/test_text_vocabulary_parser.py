"""Tests for Vocabulary, ParsingRules and parse_corpus."""

import pytest

from repro.errors import VocabularyError
from repro.text.parser import ParsingRules, parse_corpus
from repro.text.vocabulary import Vocabulary


def test_vocabulary_roundtrip():
    v = Vocabulary(["b", "a", "c"])
    assert len(v) == 3
    assert v.id_of("a") == 1
    assert v[0] == "b"
    assert "c" in v and "z" not in v
    assert list(v) == ["b", "a", "c"]


def test_vocabulary_add_is_idempotent():
    v = Vocabulary()
    assert v.add("x") == 0
    assert v.add("x") == 0
    assert len(v) == 1


def test_vocabulary_freeze():
    v = Vocabulary(["a"]).freeze()
    assert v.frozen
    assert v.add("a") == 0  # existing terms still resolvable
    with pytest.raises(VocabularyError):
        v.add("b")


def test_vocabulary_copy_is_unfrozen():
    v = Vocabulary(["a"]).freeze()
    c = v.copy()
    c.add("b")
    assert len(c) == 2 and len(v) == 1


def test_vocabulary_missing_term_raises():
    v = Vocabulary(["a"])
    with pytest.raises(VocabularyError):
        v.id_of("zzz")
    assert v.get("zzz") is None
    assert v.get("zzz", -1) == -1


def test_vocabulary_equality():
    assert Vocabulary(["a", "b"]) == Vocabulary(["a", "b"])
    assert Vocabulary(["a", "b"]) != Vocabulary(["b", "a"])


def test_parse_min_doc_freq():
    texts = ["apple banana", "apple cherry", "durian"]
    parsed = parse_corpus(texts, ParsingRules(min_doc_freq=2))
    assert parsed.vocabulary.to_list() == ["apple"]
    assert parsed.tokens == [["apple"], ["apple"], []]


def test_parse_default_keeps_all_non_stopwords():
    parsed = parse_corpus(["the apple", "a banana"])
    assert sorted(parsed.vocabulary) == ["apple", "banana"]


def test_parse_stopwords_can_be_disabled():
    parsed = parse_corpus(["the apple"], ParsingRules(remove_stopwords=False))
    assert "the" in parsed.vocabulary


def test_parse_max_vocabulary_keeps_most_frequent():
    texts = ["x x x y", "x y z", "z w"]
    parsed = parse_corpus(texts, ParsingRules(max_vocabulary=2))
    assert "x" in parsed.vocabulary
    assert len(parsed.vocabulary) == 2


def test_parse_alphabetical_order():
    parsed = parse_corpus(["zebra apple mango"])
    assert parsed.vocabulary.to_list() == sorted(parsed.vocabulary.to_list())


def test_parse_fixed_vocabulary_mode():
    vocab = Vocabulary(["apple"])
    parsed = parse_corpus(["apple banana", "banana"], vocabulary=vocab)
    assert parsed.tokens == [["apple"], []]
    assert parsed.vocabulary is vocab


def test_parse_all_eliminated_raises():
    with pytest.raises(VocabularyError):
        parse_corpus(["unique words only here"], ParsingRules(min_doc_freq=5))


def test_rules_validation():
    with pytest.raises(ValueError):
        ParsingRules(min_doc_freq=0)
    with pytest.raises(ValueError):
        ParsingRules(min_term_length=0)
    with pytest.raises(ValueError):
        ParsingRules(max_vocabulary=0)


def test_raw_token_count_tracked():
    parsed = parse_corpus(["the cat sat", "a dog ran"])
    assert parsed.n_raw_tokens == 6
    assert parsed.n_documents == 2
