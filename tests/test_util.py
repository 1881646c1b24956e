"""Tests for the util subpackage and the error hierarchy."""

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    EvaluationError,
    ModelStateError,
    ReproError,
    ShapeError,
    SparseFormatError,
    VocabularyError,
)
from repro.util.rng import ensure_rng


# --------------------------------------------------------------------- #
# rng
# --------------------------------------------------------------------- #
def test_ensure_rng_accepts_all_forms():
    assert isinstance(ensure_rng(None), np.random.Generator)
    assert isinstance(ensure_rng(42), np.random.Generator)
    g = np.random.default_rng(0)
    assert ensure_rng(g) is g
    assert isinstance(ensure_rng(np.random.SeedSequence(1)), np.random.Generator)


def test_ensure_rng_deterministic():
    a = ensure_rng(7).random(5)
    b = ensure_rng(7).random(5)
    assert np.array_equal(a, b)


def test_ensure_rng_rejects_garbage():
    with pytest.raises(TypeError):
        ensure_rng("seed")


# --------------------------------------------------------------------- #
# error hierarchy
# --------------------------------------------------------------------- #
def test_all_errors_derive_from_repro_error():
    for exc in (
        ShapeError("x"),
        SparseFormatError("x"),
        ConvergenceError("x"),
        VocabularyError("x"),
        ModelStateError("x"),
        EvaluationError("x"),
    ):
        assert isinstance(exc, ReproError)


def test_shape_error_is_value_error():
    assert isinstance(ShapeError("x"), ValueError)


def test_convergence_error_carries_progress():
    exc = ConvergenceError("slow", iterations=10, achieved=3)
    assert exc.iterations == 10 and exc.achieved == 3
