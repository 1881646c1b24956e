"""Tests for TestCollection and the MED worked-example corpus."""

import numpy as np
import pytest

from repro.corpus.collection import TestCollection
from repro.corpus.med import (
    MED_DOC_IDS,
    MED_TERMS,
    MED_TOPICS,
    MED_UPDATE_TOPICS,
    TABLE3,
    UPDATE_COLUMNS,
    med_matrix,
    med_update_matrix,
)
from repro.errors import EvaluationError


def test_collection_validation():
    with pytest.raises(EvaluationError):
        TestCollection(["a"], ["q"], [])  # judgment count mismatch
    with pytest.raises(EvaluationError):
        TestCollection(["a"], ["q"], [{5}])  # judges nonexistent doc
    with pytest.raises(EvaluationError):
        TestCollection(["a"], ["q"], [{0}], doc_ids=["x", "y"])


def test_collection_defaults():
    col = TestCollection(["a", "b"], ["q"], [{0}])
    assert col.doc_ids == ["D1", "D2"]
    assert col.query_ids == ["Q1"]
    assert col.n_documents == 2 and col.n_queries == 1
    assert col.relevant(0) == {0}


def test_split_documents():
    col = TestCollection(["a", "b", "c", "d"], ["q"], [{0, 2, 3}])
    head, tail_docs, tail_rel = col.split_documents(2)
    assert head.n_documents == 2
    assert head.relevant(0) == {0}
    assert tail_docs == ["c", "d"]
    assert tail_rel == [{0, 1}]
    with pytest.raises(EvaluationError):
        col.split_documents(0)
    with pytest.raises(EvaluationError):
        col.split_documents(9)


def test_with_documents_replacement():
    col = TestCollection(["a", "b"], ["q"], [{0}])
    rep = col.with_documents(["x", "y"])
    assert rep.documents == ["x", "y"]
    assert rep.relevant(0) == {0}
    with pytest.raises(EvaluationError):
        col.with_documents(["only-one"])


# --------------------------------------------------------------------- #
# MED example data
# --------------------------------------------------------------------- #
def test_med_topics_complete():
    assert len(MED_TOPICS) == 14
    assert len(MED_UPDATE_TOPICS) == 2
    assert list(MED_TOPICS) == MED_DOC_IDS


def test_table3_is_binary_and_matches_constants():
    assert TABLE3.shape == (18, 14)
    assert set(np.unique(TABLE3)) <= {0.0, 1.0}
    assert len(MED_TERMS) == 18
    # Row sums ≥ 2 (every keyword appears in more than one topic).
    assert np.all(TABLE3.sum(axis=1) >= 2)


def test_med_matrix_labels():
    tm = med_matrix()
    assert tm.vocabulary.to_list() == MED_TERMS
    assert tm.doc_ids == MED_DOC_IDS
    assert tm.vocabulary.frozen


def test_update_columns_match_topic_texts():
    # M15: behavior, oestrogen, rats, rise; M16: depressed, fast,
    # patients, pressure.
    m15_terms = {MED_TERMS[i] for i in np.flatnonzero(UPDATE_COLUMNS[:, 0])}
    m16_terms = {MED_TERMS[i] for i in np.flatnonzero(UPDATE_COLUMNS[:, 1])}
    assert m15_terms == {"behavior", "oestrogen", "rats", "rise"}
    assert m16_terms == {"depressed", "fast", "patients", "pressure"}
    um = med_update_matrix()
    assert um.doc_ids == ["M15", "M16"]
