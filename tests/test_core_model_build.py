"""Tests for LSIModel and the fitting pipeline."""

import numpy as np
import pytest

from repro.core.build import fit_lsi, fit_lsi_from_tdm
from repro.core.model import LSIModel
from repro.errors import ModelStateError, ShapeError
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import WeightingScheme


def test_fit_shapes(med_tdm):
    model = fit_lsi_from_tdm(med_tdm, 3)
    assert model.U.shape == (18, 3)
    assert model.s.shape == (3,)
    assert model.V.shape == (14, 3)
    assert model.k == 3
    assert model.n_terms == 18 and model.n_documents == 14


def test_singular_values_descending(med_tdm):
    model = fit_lsi_from_tdm(med_tdm, 5)
    assert np.all(np.diff(model.s) <= 1e-12)


def test_fit_from_texts_with_scheme(med_texts):
    model = fit_lsi(med_texts, 2, scheme="log_entropy")
    assert model.scheme == WeightingScheme("log", "entropy")
    assert model.global_weights.shape == (model.n_terms,)


def test_fit_k_validation(med_tdm):
    with pytest.raises(ShapeError):
        fit_lsi_from_tdm(med_tdm, 0)
    with pytest.raises(ShapeError):
        fit_lsi_from_tdm(med_tdm, 15)


def test_reconstruct_matches_svd(med_tdm):
    model = fit_lsi_from_tdm(med_tdm, 2)
    A = med_tdm.to_dense()
    Ak = (model.U * model.s) @ model.V.T
    # A_k is the best rank-2 approximation (Eckart-Young).
    s = np.linalg.svd(A, compute_uv=False)
    assert np.linalg.norm(A - Ak) == pytest.approx(
        np.sqrt(np.sum(s[2:] ** 2)), rel=1e-9
    )


def test_full_rank_reconstructs_exactly(med_tdm):
    """§5.2: with k=n factors A_k reconstructs A exactly."""
    model = fit_lsi_from_tdm(med_tdm, 14)
    Ak = (model.U * model.s) @ model.V.T
    assert np.allclose(Ak, med_tdm.to_dense(), atol=1e-8)


def test_coordinates_scaling(med_model):
    assert np.allclose(med_model.term_coordinates(), med_model.U * med_model.s)
    assert np.allclose(med_model.doc_coordinates(), med_model.V * med_model.s)


def test_doc_index_names_each_document_and_refuses_an_unknown_one(med_model):
    assert med_model.doc_index("M1") == 0
    with pytest.raises(ModelStateError):
        med_model.doc_index("M99")


def test_truncated(med_model_k8):
    t = med_model_k8.truncated(3)
    assert t.k == 3
    assert np.allclose(t.s, med_model_k8.s[:3])
    assert t.vocabulary is med_model_k8.vocabulary
    with pytest.raises(ShapeError):
        med_model_k8.truncated(9)


def test_model_validation_errors():
    vocab = Vocabulary(["a", "b"]).freeze()
    with pytest.raises(ShapeError):
        LSIModel(np.zeros((2, 2)), np.ones(2), np.zeros((3, 3)), vocab, ["d"] * 3)
    with pytest.raises(ShapeError):
        LSIModel(np.zeros((3, 2)), np.ones(2), np.zeros((3, 2)), vocab, ["d"] * 3)
    with pytest.raises(ShapeError):
        LSIModel(np.zeros((2, 2)), np.ones(2), np.zeros((3, 2)), vocab, ["d"] * 2)
    with pytest.raises(ShapeError):
        LSIModel(
            np.zeros((2, 2)), np.ones(2), np.zeros((3, 2)), vocab, ["d"] * 3,
            global_weights=np.ones(5),
        )


def test_with_documents_validation(med_model):
    with pytest.raises(ShapeError):
        med_model.with_documents(np.zeros((2, 5)), ["a", "b"], provenance="x")
    with pytest.raises(ShapeError):
        med_model.with_documents(np.zeros((2, 2)), ["a"], provenance="x")


def test_with_terms_rejects_duplicates(med_model):
    with pytest.raises(ShapeError):
        med_model.with_terms(np.zeros((1, 2)), ["blood"], provenance="x")


def test_repr(med_model):
    r = repr(med_model)
    assert "m=18" in r and "n=14" in r and "k=2" in r
