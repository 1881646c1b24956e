"""Tests for the truncated-SVD front-end."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg import truncated_svd
from repro.linalg.svd import SVDResult
from repro.sparse import from_dense


@pytest.fixture
def matrix(rng):
    d = rng.standard_normal((40, 30)) * (rng.random((40, 30)) < 0.3)
    return d, from_dense(d)


@pytest.mark.parametrize("method", ["dense", "lanczos"])
def test_backends_agree_with_reference(matrix, method):
    d, a = matrix
    res = truncated_svd(a, 5, method=method)
    s_ref = np.linalg.svd(d, compute_uv=False)[:5]
    assert np.allclose(res.s, s_ref, atol=1e-6), method
    assert res.method == method
    assert res.U.shape == (d.shape[0], 5) and res.V.shape == (d.shape[1], 5)


def test_auto_uses_dense_for_small(matrix):
    _, a = matrix
    res = truncated_svd(a, 3, method="auto")
    assert res.method == "dense"


def test_auto_uses_lanczos_for_large(rng):
    d = rng.standard_normal((300, 260)) * (rng.random((300, 260)) < 0.02)
    res = truncated_svd(from_dense(d), 4, method="auto")
    assert res.method == "lanczos"
    assert np.allclose(res.s, np.linalg.svd(d, compute_uv=False)[:4], atol=1e-7)


def test_reconstruct_is_best_rank_k(matrix):
    """Eckart-Young (Theorem 2.2): ‖A − A_k‖_F² = Σ_{i>k} σ_i²."""
    d, a = matrix
    res = truncated_svd(a, 4, method="dense")
    resid = np.linalg.norm(d - (res.U * res.s) @ res.V.T)
    s_all = np.linalg.svd(d, compute_uv=False)
    assert resid == pytest.approx(np.sqrt(np.sum(s_all[4:] ** 2)), rel=1e-9)


def test_frobenius_property(matrix):
    """Theorem 2.1 norm property: ‖A_k‖_F = sqrt(Σ_{i≤k} σ_i²)."""
    d, a = matrix
    res = truncated_svd(a, 6, method="dense")
    assert np.sqrt(np.sum(res.s**2)) == pytest.approx(
        np.linalg.norm((res.U * res.s) @ res.V.T), rel=1e-9
    )


def test_k_validation(matrix):
    _, a = matrix
    with pytest.raises(ShapeError):
        truncated_svd(a, 0)
    with pytest.raises(ShapeError):
        truncated_svd(a, 31)


def test_unknown_method(matrix):
    _, a = matrix
    for method in ("magic", "gkl"):
        with pytest.raises(ValueError, match="unknown SVD method"):
            truncated_svd(a, 2, method=method)


def test_dense_ndarray_input(rng):
    d = rng.standard_normal((12, 9))
    res = truncated_svd(d, 3, method="dense")
    assert np.allclose(res.s, np.linalg.svd(d, compute_uv=False)[:3], atol=1e-9)


def test_svd_result_dataclass_fields():
    res = SVDResult(np.eye(3), np.ones(3), np.eye(3))
    assert res.stats is None
    assert res.method == "dense"
