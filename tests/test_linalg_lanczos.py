"""Tests for the Lanczos truncated SVD (the SVDPACKC analogue)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg.counters import OperatorCounter
from repro.linalg.lanczos import LanczosStats, lanczos_svd
from repro.linalg.orth import orthogonality_loss
from repro.sparse.build import from_dense


def _sparse(rng, m, n, density=0.2):
    d = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
    return d, from_dense(d)


def test_top_triplets_match_reference(rng):
    d, a = _sparse(rng, 60, 45)
    U, s, V, stats = lanczos_svd(a, 6)
    s_ref = np.linalg.svd(d, compute_uv=False)[:6]
    assert np.allclose(s, s_ref, atol=1e-8)
    assert np.allclose(np.abs(np.diag(U.T @ d @ V)), s, atol=1e-7)


def test_singular_vectors_orthonormal(rng):
    _, a = _sparse(rng, 50, 70)
    U, s, V, _ = lanczos_svd(a, 5)
    assert orthogonality_loss(U) < 1e-8
    assert orthogonality_loss(V) < 1e-8


def test_wide_matrix_uses_row_gram(rng):
    d, a = _sparse(rng, 20, 90)
    U, s, V, stats = lanczos_svd(a, 4)
    assert stats.gram_dim == 20
    assert np.allclose(s, np.linalg.svd(d, compute_uv=False)[:4], atol=1e-8)


def test_dense_input_accepted(rng):
    d = rng.standard_normal((30, 25))
    U, s, V, _ = lanczos_svd(d, 3)
    assert np.allclose(s, np.linalg.svd(d, compute_uv=False)[:3], atol=1e-8)


def test_bases_orthonormal(rng):
    d = rng.standard_normal((30, 22))
    U, _, V, _ = lanczos_svd(d, 12, seed=2)
    assert np.allclose(U.T @ U, np.eye(12), atol=1e-9)
    assert np.allclose(V.T @ V, np.eye(12), atol=1e-9)


def test_full_steps_capture_spectrum(rng):
    """Asking for every triplet returns the whole spectrum, and the
    factors span the matrix: ``A V = U Σ``."""
    d = rng.standard_normal((15, 9))
    U, s, V, _ = lanczos_svd(from_dense(d), 9, seed=0)
    assert np.allclose(s, np.linalg.svd(d, compute_uv=False), atol=1e-8)
    assert np.allclose(d @ V, U * s, atol=1e-8)


def test_full_rank_request(rng):
    d = rng.standard_normal((10, 6))
    U, s, V, _ = lanczos_svd(d, 6)
    assert np.allclose(s, np.linalg.svd(d, compute_uv=False), atol=1e-8)
    assert np.allclose((U * s) @ V.T, d, atol=1e-7)


def test_rank_deficient_matrix(rng):
    # rank 2 matrix, ask for 4 triplets → two zero singular values
    d = np.outer(rng.standard_normal(12), rng.standard_normal(8))
    d += np.outer(rng.standard_normal(12), rng.standard_normal(8))
    U, s, V, _ = lanczos_svd(d, 4)
    # Zero singular values computed through the squared Gram operator are
    # only accurate to ~eps·sigma_1 after the sqrt, hence the loose cut.
    assert np.sum(s > 1e-6 * s[0]) == 2
    assert np.allclose(s[:2], np.linalg.svd(d, compute_uv=False)[:2], atol=1e-8)


def test_k_validation(rng):
    d = rng.standard_normal((5, 4))
    with pytest.raises(ShapeError):
        lanczos_svd(d, 0)
    with pytest.raises(ShapeError):
        lanczos_svd(d, 5)


def test_reorth_policy_validation(rng):
    with pytest.raises(ValueError):
        lanczos_svd(np.eye(4), 2, reorth="sometimes")


def test_stats_populated(rng):
    _, a = _sparse(rng, 40, 40)
    _, _, _, stats = lanczos_svd(a, 3)
    assert isinstance(stats, LanczosStats)
    assert stats.iterations >= 3
    assert stats.converged == 3
    assert stats.matvecs >= 2 * stats.iterations


def test_operator_counter_measures_cost_model(rng):
    """The paper's cost model: I gram products + trp extraction products."""
    _, a = _sparse(rng, 50, 40)
    counter = OperatorCounter(a)
    _, s, _, stats = lanczos_svd(counter, 4)
    # Every iteration applies A and Aᵀ once; extraction adds ≤ k matvecs.
    assert counter.matvecs + counter.rmatvecs == stats.matvecs
    assert counter.gram_products == stats.iterations
    nonzero_triplets = int(np.sum(s > 0))
    assert counter.matvecs == stats.iterations + nonzero_triplets


def test_deterministic_given_seed(rng):
    _, a = _sparse(rng, 30, 30)
    r1 = lanczos_svd(a, 3, seed=7)
    r2 = lanczos_svd(a, 3, seed=7)
    assert np.array_equal(r1[1], r2[1])
    assert np.array_equal(r1[0], r2[0])


def test_no_reorth_still_finds_top_singular_value(rng):
    """Without reorthogonalization the top triplet is still right (ghost
    eigenvalues corrupt the tail, which is why 'full' is the default)."""
    d, a = _sparse(rng, 40, 30, density=0.5)
    U, s, V, _ = lanczos_svd(a, 1, reorth="none", max_iter=30)
    s_ref = np.linalg.svd(d, compute_uv=False)
    assert s[0] == pytest.approx(s_ref[0], rel=1e-6)
