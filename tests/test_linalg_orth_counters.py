"""Tests for orthogonality diagnostics and operation counters."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg import (
    FlopCounter,
    OperatorCounter,
    orthogonality_loss,
)
from repro.sparse import from_dense


def orthonormal_columns(m, k, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((m, k)))[0]


def test_spectral_norm_matches_numpy(rng):
    """The 2-norm ``orthogonality_loss`` takes of ``QᵀQ − I`` is LAPACK's."""
    for shape in [(5, 5), (12, 7), (20, 3), (3, 20)]:
        Q = rng.standard_normal(shape)
        gram = Q.T @ Q - np.eye(shape[1])
        assert orthogonality_loss(Q) == pytest.approx(
            np.linalg.norm(gram, 2), rel=1e-12
        )


def test_spectral_norm_zero_and_empty():
    assert orthogonality_loss(np.zeros((4, 0))) == 0.0
    assert orthogonality_loss(np.zeros((0, 0))) == 0.0
    # no rows: QᵀQ − I = −I
    assert orthogonality_loss(np.zeros((0, 3))) == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN through QᵀQ
def test_orthogonality_loss_of_non_finite_factor_is_nan():
    Q = np.eye(4, 2)
    Q[1, 1] = np.nan
    assert np.isnan(orthogonality_loss(Q))
    Q[1, 1] = np.inf
    assert np.isnan(orthogonality_loss(Q))


def test_spectral_norm_rejects_vector():
    with pytest.raises(ShapeError):
        orthogonality_loss(np.zeros(3))


def test_orthogonality_loss_zero_for_orthonormal(rng):
    Q = orthonormal_columns(20, 6, seed=1)
    assert orthogonality_loss(Q) < 1e-12


def test_orthogonality_loss_detects_drift(rng):
    Q = orthonormal_columns(20, 6, seed=1)
    Q2 = np.hstack([Q, (Q[:, :1] + Q[:, 1:2]) / np.sqrt(2)])
    assert orthogonality_loss(Q2) > 0.5


def test_orthogonality_loss_scaling():
    Q = 2.0 * orthonormal_columns(10, 3, seed=0)
    assert orthogonality_loss(Q) == pytest.approx(3.0, rel=1e-8)  # ‖4I−I‖₂


def test_flop_counter():
    fc = FlopCounter()
    fc.add("matvec", 100)
    fc.add("matvec", 50)
    fc.add("qr", 10)
    assert fc.total == 160
    assert fc.counts == {"matvec": 150, "qr": 10}


def test_operator_counter_sparse(rng):
    d = rng.random((6, 4)) * (rng.random((6, 4)) < 0.5)
    a = from_dense(d)
    oc = OperatorCounter(a)
    x = rng.standard_normal(4)
    y = oc.matvec(x)
    assert np.allclose(y, d @ x)
    z = oc.rmatvec(np.ones(6))
    assert np.allclose(z, d.T @ np.ones(6))
    assert oc.matvecs == 1 and oc.rmatvecs == 1
    assert oc.flops.total == 2 * (2 * a.nnz)
    oc.reset()
    assert oc.matvecs == 0 and oc.flops.total == 0


def test_operator_counter_dense(rng):
    d = rng.standard_normal((5, 3))
    oc = OperatorCounter(d)
    oc.matvec(np.ones(3))
    assert oc.flops.total == 2 * 5 * 3
