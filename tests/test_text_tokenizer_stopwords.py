"""Tests for tokenization and the stop list."""

from repro.text.stopwords import DEFAULT_STOPWORDS
from repro.text.tokenizer import tokenize


def test_basic_tokenization():
    assert tokenize("Hello, World!") == ["hello", "world"]


def test_punctuation_and_whitespace_split():
    assert tokenize("a,b;c  d\te\nf") == list("abcdef")


def test_numbers_kept():
    assert tokenize("the 18x14 matrix") == ["the", "18x14", "matrix"]


def test_internal_apostrophe_and_hyphen_kept():
    assert tokenize("children's pleuropneumonia-like") == [
        "children's",
        "pleuropneumonia-like",
    ]


def test_edge_punctuation_stripped():
    assert tokenize("'quoted' -dashed-") == ["quoted", "dashed"]


def test_no_stemming():
    """The paper is explicit: no morphological collapsing."""
    toks = tokenize("doctor doctors doctoral")
    assert toks == ["doctor", "doctors", "doctoral"]
    assert len(set(toks)) == 3


def test_min_length_filter():
    assert tokenize("a an the cat", min_length=3) == ["the", "cat"]


def test_empty_and_symbol_only_input():
    assert tokenize("") == []
    assert tokenize("!!! ??? ...") == []


def test_paper_query_stopwords():
    """'of' and 'with' from the worked query are stop words."""
    assert {"of", "with"} <= DEFAULT_STOPWORDS
    assert "blood" not in DEFAULT_STOPWORDS
    assert "children" not in DEFAULT_STOPWORDS  # dropped by min-df, not the stop list


def test_default_list_is_frozen_and_lowercase():
    assert isinstance(DEFAULT_STOPWORDS, frozenset)
    assert all(w == w.lower() for w in DEFAULT_STOPWORDS)
