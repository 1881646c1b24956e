"""Tests for term-document matrix construction and n-gram features."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.text.ngrams import char_ngrams, vocabulary_ngrams
from repro.text.parser import ParsingRules, parse_corpus
from repro.text.tdm import build_tdm, count_vector, tdm_from_parsed
from repro.text.vocabulary import Vocabulary


def test_build_tdm_counts_frequencies():
    tdm = build_tdm(["apple apple banana", "banana cherry"])
    a = tdm.vocabulary.id_of("apple")
    b = tdm.vocabulary.id_of("banana")
    dense = tdm.to_dense()
    assert dense[a, 0] == 2.0
    assert dense[b, 0] == 1.0 and dense[b, 1] == 1.0
    assert tdm.n_documents == 2


def test_doc_ids_default_and_custom():
    tdm = build_tdm(["a b", "b c"], doc_ids=["X", "Y"])
    assert tdm.doc_ids == ["X", "Y"]
    tdm2 = build_tdm(["a b", "b c"])
    assert tdm2.doc_ids == ["D1", "D2"]
    with pytest.raises(ShapeError):
        build_tdm(["a b"], doc_ids=["X", "Y"])


def test_fixed_vocabulary_build():
    vocab = Vocabulary(["apple", "zebra"]).freeze()
    tdm = build_tdm(["apple banana zebra"], vocabulary=vocab)
    assert tdm.n_terms == 2
    dense = tdm.to_dense()
    assert dense[0, 0] == 1.0 and dense[1, 0] == 1.0


def test_count_vector_drops_oov():
    vocab = Vocabulary(["blood", "age"])
    v = count_vector(["age", "of", "children", "blood", "blood"], vocab)
    assert v[vocab.id_of("age")] == 1.0
    assert v[vocab.id_of("blood")] == 2.0
    assert v.sum() == 3.0


def test_tdm_from_parsed():
    parsed = parse_corpus(["x y", "y z"])
    tdm = tdm_from_parsed(parsed)
    assert tdm.shape == (3, 2)


@pytest.mark.parametrize("corpus", ["medline", "synthetic"])
def test_column_assembly_matches_per_token_path(corpus, med_texts, small_collection):
    """The assembled CSC arrays are those of a dense count matrix built
    one token at a time: each column's nonzero rows ascending, their
    counts, and a pointer over the per-column nonzero counts."""
    texts = med_texts if corpus == "medline" else small_collection.documents
    parsed = parse_corpus(texts, ParsingRules(min_doc_freq=2))
    vocab = parsed.vocabulary
    dense = np.zeros((len(vocab), parsed.n_documents))
    for j, doc in enumerate(parsed.tokens):
        for t in doc:
            dense[vocab.id_of(t), j] += 1.0
    rows = [np.flatnonzero(dense[:, j]) for j in range(dense.shape[1])]
    got = tdm_from_parsed(parsed).matrix
    assert got.shape == dense.shape
    assert np.array_equal(got.indptr, np.cumsum([0] + [r.size for r in rows]))
    assert np.array_equal(got.indices, np.concatenate(rows))
    assert np.array_equal(
        got.data, np.concatenate([dense[r, j] for j, r in enumerate(rows)])
    )


def test_empty_document_column():
    tdm = build_tdm(
        ["apple apple", "apple", "xyzzy"], ParsingRules(min_doc_freq=2)
    )
    # third doc has no indexed terms → all-zero column, still present
    assert tdm.shape[1] == 3
    assert np.all(tdm.to_dense()[:, 2] == 0)


# --------------------------------------------------------------------- #
# n-grams
# --------------------------------------------------------------------- #
def test_char_ngrams_unigrams():
    assert char_ngrams("cat", (1,)) == ["c", "a", "t"]


def test_char_ngrams_bigrams_have_boundaries():
    assert char_ngrams("cat", (2,)) == ["#c", "ca", "at", "t#"]


def test_char_ngrams_mixed_sizes():
    grams = char_ngrams("ab", (1, 2, 3))
    assert "a" in grams and "#a" in grams and "#ab" in grams


def test_char_ngrams_short_word():
    assert char_ngrams("a", (3,)) == ["#a#"]


def test_char_ngrams_case_insensitive():
    assert char_ngrams("CaT", (1,)) == ["c", "a", "t"]


def test_char_ngrams_invalid_size():
    with pytest.raises(ValueError):
        char_ngrams("cat", (0,))


def test_vocabulary_ngrams_sorted_union():
    grams = vocabulary_ngrams(["ab", "ba"], (2,))
    assert grams == sorted(set(grams))
    assert "ab" in grams and "ba" in grams
