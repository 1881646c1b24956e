"""Tests for folding-in (Eq. 7/8)."""

import numpy as np
import pytest

from repro.core.build import fit_lsi
from repro.core.query import project_query
from repro.corpus.med import MED_UPDATE_TOPICS, UPDATE_COLUMNS
from repro.errors import ShapeError
from repro.updating.folding import (
    fold_in_documents,
    fold_in_terms,
    fold_in_texts,
)


def test_fold_documents_is_query_projection(med_model):
    """Eq. 7 == Eq. 6: a folded document lands exactly where the same
    word bag lands as a query ('folding-in documents is essentially the
    process described ... for query representation')."""
    folded = fold_in_documents(med_model, UPDATE_COLUMNS[:, :1], ["M15"])
    qhat = project_query(
        med_model, ["behavior", "oestrogen", "rats", "rise"]
    )
    assert np.allclose(folded.V[-1], qhat)


def test_fold_texts_matches_fold_counts(med_model):
    by_text = fold_in_texts(
        med_model, list(MED_UPDATE_TOPICS.values()), ["M15", "M16"]
    )
    by_counts = fold_in_documents(med_model, UPDATE_COLUMNS, ["M15", "M16"])
    assert np.allclose(by_text.V, by_counts.V)
    assert by_text.doc_ids == by_counts.doc_ids


def test_fold_texts_default_ids(med_model):
    folded = fold_in_texts(med_model, ["rats rise"])
    assert folded.doc_ids[-1] == "D15"


def test_fold_documents_validation(med_model):
    with pytest.raises(ShapeError):
        fold_in_documents(med_model, np.zeros((5, 1)), ["x"])
    with pytest.raises(ShapeError):
        fold_in_documents(med_model, UPDATE_COLUMNS, ["only-one"])


def test_fold_single_vector_promoted_to_column(med_model):
    folded = fold_in_documents(med_model, UPDATE_COLUMNS[:, 0], ["M15"])
    assert folded.n_documents == 15


def test_fold_terms_eq8(med_model):
    """t̂ = t V_k Σ_k⁻¹ for a new term row."""
    t_row = np.zeros((1, 14))
    t_row[0, [12, 13]] = 1.0  # occurs in M13, M14
    folded = fold_in_terms(med_model, t_row, ["rodents"])
    expected = (t_row @ med_model.V) / med_model.s
    assert np.allclose(folded.U[-1], expected[0])
    assert "rodents" in folded.vocabulary
    assert folded.n_terms == 19
    # Existing term vectors untouched.
    assert np.array_equal(folded.U[:18], med_model.U)


def test_fold_terms_near_related_terms(med_model):
    """A term occurring exactly where 'rats' occurs lands on 'rats'."""
    t_row = np.zeros((1, 14))
    t_row[0, [12, 13]] = 1.0
    folded = fold_in_terms(med_model, t_row, ["rodents"])
    coords = folded.term_coordinates()
    a = coords[folded.vocabulary.id_of("rodents")]
    b = coords[folded.vocabulary.id_of("rats")]
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos > 0.999


def test_fold_terms_validation(med_model):
    with pytest.raises(ShapeError):
        fold_in_terms(med_model, np.zeros((1, 9)), ["x"])
    with pytest.raises(ShapeError):
        fold_in_terms(med_model, np.zeros((2, 14)), ["x"])
    with pytest.raises(ShapeError):
        fold_in_terms(med_model, np.zeros((1, 14)), ["blood"])  # duplicate


def test_fold_respects_weighting_scheme(med_texts):
    model = fit_lsi(med_texts, 2, scheme="log_entropy")
    counts = np.zeros((model.n_terms, 1))
    counts[0] = 3.0
    folded = fold_in_documents(model, counts, ["new"])
    weighted = np.log2(counts + 1)[:, 0] * model.global_weights
    expected = (weighted @ model.U) / model.s
    assert np.allclose(folded.V[-1], expected)


def test_fold_terms_with_global_weights(med_model):
    t_row = np.ones((1, 14))
    folded = fold_in_terms(
        med_model, t_row, ["everywhere"], global_weights=np.array([0.5])
    )
    expected = (0.5 * t_row @ med_model.V) / med_model.s
    assert np.allclose(folded.U[-1], expected[0])
    assert folded.global_weights[-1] == 0.5
