"""Tests for the three SVD-updating phases (Eq. 10-12)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import fit_lsi_from_tdm
from repro.corpus.med import UPDATE_COLUMNS, med_matrix
from repro.errors import ShapeError
from repro.linalg.orth import orthogonality_loss
from repro.updating.svd_update import (
    update_documents,
    update_terms,
    update_weights,
)
from repro.weighting.correction import weight_correction_blocks
from repro.weighting.schemes import WeightingScheme, apply_weighting


@pytest.fixture(scope="module")
def full_rank_model():
    """Rank-14 model of the 18×14 example: A_k == A, so the update
    methods operate on the exact matrix.  Note the printed (projection)
    constructions still discard components of new columns/rows outside
    the retained subspaces — only ``exact=True`` recovers direct SVDs."""
    return fit_lsi_from_tdm(med_matrix(), 14)


# --------------------------------------------------------------------- #
# documents (Eq. 10)
# --------------------------------------------------------------------- #
def test_update_documents_full_rank_exact_matches_direct_svd(full_rank_model):
    updated = update_documents(
        full_rank_model, UPDATE_COLUMNS, ["M15", "M16"], exact=True
    )
    B = np.hstack([med_matrix().to_dense(), UPDATE_COLUMNS])
    s_ref = np.linalg.svd(B, compute_uv=False)[:14]
    assert np.allclose(updated.s, s_ref, atol=1e-8)


def test_update_documents_projection_never_exceeds_exact(full_rank_model):
    """The printed construction projects D onto span(U_k); its singular
    values are dominated by the exact update's (interlacing)."""
    approx = update_documents(full_rank_model, UPDATE_COLUMNS, ["M15", "M16"])
    exact = update_documents(
        full_rank_model, UPDATE_COLUMNS, ["M15", "M16"], exact=True
    )
    assert np.all(approx.s <= exact.s + 1e-10)


def test_update_documents_exact_flag(med_model):
    updated = update_documents(
        med_model, UPDATE_COLUMNS, ["M15", "M16"], exact=True
    )
    B = np.hstack([(med_model.U * med_model.s) @ med_model.V.T, UPDATE_COLUMNS])
    assert np.allclose(
        updated.s, np.linalg.svd(B, compute_uv=False)[:2], atol=1e-9
    )


def test_update_documents_orthogonality(med_model):
    for exact in (False, True):
        updated = update_documents(
            med_model, UPDATE_COLUMNS, ["M15", "M16"], exact=exact
        )
        assert orthogonality_loss(updated.U) < 1e-10
        assert orthogonality_loss(updated.V) < 1e-10


def test_update_documents_metadata(med_model):
    updated = update_documents(med_model, UPDATE_COLUMNS, ["M15", "M16"])
    assert updated.doc_ids[-2:] == ["M15", "M16"]
    assert updated.n_documents == 16
    assert updated.k == 2
    assert updated.vocabulary is med_model.vocabulary


def test_update_documents_validation(med_model):
    with pytest.raises(ShapeError):
        update_documents(med_model, UPDATE_COLUMNS, ["x"])
    with pytest.raises(ShapeError):
        update_documents(med_model, np.zeros((5, 2)), ["x", "y"])


# --------------------------------------------------------------------- #
# terms (Eq. 11)
# --------------------------------------------------------------------- #
def test_update_terms_full_rank_is_exact(full_rank_model):
    """A_14 has full *column* rank, so V_14 spans all of R^14 and new
    term rows have no out-of-subspace component: the printed Eq. 11
    construction is exact here even without the residual extension."""
    T = np.zeros((2, 14))
    T[0, [0, 3]] = 1.0
    T[1, [5, 9]] = 2.0
    updated = update_terms(full_rank_model, T, ["alpha", "beta"])
    C = np.vstack([med_matrix().to_dense(), T])
    s_ref = np.linalg.svd(C, compute_uv=False)[:14]
    assert np.allclose(updated.s, s_ref, atol=1e-8)


def test_update_terms_exact_flag(med_model):
    T = np.zeros((2, 14))
    T[0, [0, 3]] = 1.0
    T[1, [5, 9]] = 2.0
    updated = update_terms(med_model, T, ["alpha", "beta"], exact=True)
    C = np.vstack([(med_model.U * med_model.s) @ med_model.V.T, T])
    assert np.allclose(
        updated.s, np.linalg.svd(C, compute_uv=False)[:2], atol=1e-9
    )


def test_update_terms_extends_vocabulary(med_model):
    T = np.ones((1, 14))
    updated = update_terms(med_model, T, ["everywhere"])
    assert "everywhere" in updated.vocabulary
    assert updated.n_terms == 19
    assert updated.global_weights.shape == (19,)
    assert orthogonality_loss(updated.U) < 1e-10
    assert orthogonality_loss(updated.V) < 1e-10


def test_update_terms_validation(med_model):
    with pytest.raises(ShapeError, match="has 9 columns for n=14"):
        update_terms(med_model, np.ones((1, 9)), ["x"])
    with pytest.raises(ShapeError):
        update_terms(med_model, np.ones((1, 14)), ["blood"])
    with pytest.raises(ShapeError):
        update_terms(med_model, np.ones((1, 14)), ["x"], global_weights=np.ones(3))


# --------------------------------------------------------------------- #
# weight corrections (Eq. 12)
# --------------------------------------------------------------------- #
def test_update_terms_rejects_a_held_term_before_the_svd(med_model, monkeypatch):
    from repro.updating import svd_update

    def no_kernel(*args):
        raise AssertionError("the kernel ran for a rejected term block")

    monkeypatch.setattr(svd_update, "low_rank_update", no_kernel)
    with pytest.raises(ShapeError, match="already present"):
        update_terms(med_model, np.ones((2, 14)), ["fresh", "blood"])


def test_update_weights_identity_for_zero_z(med_model):
    Y = np.zeros((18, 1))
    Y[0, 0] = 1.0
    Z = np.zeros((14, 1))
    updated = update_weights(med_model, Y, Z)
    assert np.allclose(np.sort(updated.s), np.sort(med_model.s), atol=1e-10)
    assert np.allclose(
        (updated.U * updated.s) @ updated.V.T,
        (med_model.U * med_model.s) @ med_model.V.T,
        atol=1e-10,
    )


def test_update_weights_full_rank_matches_reweighting(full_rank_model):
    """Changing global weights of some terms via Eq. 12 (with the
    residual kept) on a full-rank model equals decomposing the
    re-weighted matrix directly."""
    raw = med_matrix().matrix
    old = apply_weighting(raw, WeightingScheme("raw", "none")).matrix
    new = apply_weighting(raw, WeightingScheme("raw", "idf")).matrix
    changed = np.flatnonzero(
        np.abs(old.to_dense() - new.to_dense()).sum(axis=1) > 0
    )
    Y, Z = weight_correction_blocks(old, new, changed)
    updated = update_weights(full_rank_model, Y, Z, exact=True)
    s_ref = np.linalg.svd(new.to_dense(), compute_uv=False)[:14]
    assert np.allclose(updated.s, s_ref, atol=1e-8)


def test_update_weights_exact_flag(med_model, rng):
    Y = np.zeros((18, 2))
    Y[3, 0] = 1.0
    Y[7, 1] = 1.0
    Z = rng.standard_normal((14, 2)) * 0.3
    updated = update_weights(med_model, Y, Z, exact=True)
    W = (med_model.U * med_model.s) @ med_model.V.T + Y @ Z.T
    assert np.allclose(
        updated.s, np.linalg.svd(W, compute_uv=False)[:2], atol=1e-9
    )


def test_update_weights_validation(med_model):
    with pytest.raises(ShapeError):
        update_weights(med_model, np.zeros((5, 1)), np.zeros((14, 1)))
    with pytest.raises(ShapeError):
        update_weights(med_model, np.zeros((18, 1)), np.zeros((9, 1)))
    with pytest.raises(ShapeError):
        update_weights(med_model, np.zeros((18, 2)), np.zeros((14, 1)))


def test_update_order_document_then_term_consistency(rng):
    """§4: 'The order of these steps ... need not follow the ordering
    presented' — when k exceeds the combined rank (so truncation is
    lossless), docs-then-terms and terms-then-docs give the same
    spectrum with the residual-exact updates."""
    from repro.core.model import LSIModel
    from repro.linalg.svd import dense_svd
    from repro.text.vocabulary import Vocabulary

    A = rng.standard_normal((18, 5)) @ rng.standard_normal((5, 14))
    U, s, V = dense_svd(A)
    k = 8  # rank(A)=5, +1 doc +1 term ≤ 7 < 8 → no truncation loss
    model = LSIModel(
        U[:, :k], s[:k], V[:, :k],
        Vocabulary([f"t{i}" for i in range(18)]).freeze(),
        [f"d{j}" for j in range(14)],
    )
    D = np.zeros((18, 1)); D[[2, 5], 0] = 1.0
    T = np.zeros((1, 14)); T[0, [2, 3]] = 1.0
    T_ext = np.hstack([T, np.zeros((1, 1))])
    D_ext = np.vstack([D, np.zeros((1, 1))])
    a = update_terms(
        update_documents(model, D, ["new-doc"], exact=True),
        T_ext, ["new-term"], exact=True,
    )
    b = update_documents(
        update_terms(model, T, ["new-term"], exact=True),
        D_ext, ["new-doc"], exact=True,
    )
    assert np.allclose(a.s, b.s, atol=1e-8)
    # And both equal the direct SVD of the combined matrix.
    combined = np.vstack([np.hstack([A, D]), T_ext])
    s_ref = np.linalg.svd(combined, compute_uv=False)[:k]
    assert np.allclose(a.s, s_ref, atol=1e-8)


# --------------------------------------------------------------------- #
# one kernel, three phases: a dense-SVD oracle
# --------------------------------------------------------------------- #
def _random_block(rng, rows, cols, rank):
    """A ``rows × cols`` block of rank at most ``rank`` (0 gives zeros)."""
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


@given(
    m=st.integers(3, 12),
    n=st.integers(3, 12),
    k=st.integers(1, 6),
    p=st.integers(1, 14),
    block_rank=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_every_phase_matches_the_dense_svd_oracle(m, n, k, p, block_rank, seed):
    """Each exact form is the rank-k truncation of the dense SVD of the
    matrix it updates to — ``[A_k | D]``, ``[A_k; T]`` or ``A_k + YZᵀ``
    formed explicitly — including wide blocks (``p`` past ``m`` or
    ``n``) and rank-deficient ones; each printed form's σ never exceed
    the exact form's."""
    from repro.core.model import LSIModel
    from repro.linalg.svd import dense_svd
    from repro.text.vocabulary import Vocabulary

    rng = np.random.default_rng(seed)
    k = min(k, m, n)
    U, s, V = dense_svd(rng.standard_normal((m, n)))
    U, s, V = U[:, :k], s[:k], V[:, :k]
    model = LSIModel(
        U, s, V, Vocabulary([f"t{i}" for i in range(m)]).freeze(),
        [f"d{j}" for j in range(n)],
    )
    A_k = (U * s) @ V.T
    r = min(block_rank, p)
    D = _random_block(rng, m, p, r)
    T = _random_block(rng, p, n, r)
    Y, Z = _random_block(rng, m, p, r), _random_block(rng, n, p, r)
    cases = [
        (lambda e: update_documents(model, D, [f"x{j}" for j in range(p)], exact=e),
         np.hstack([A_k, D])),
        (lambda e: update_terms(model, T, [f"y{i}" for i in range(p)], exact=e),
         np.vstack([A_k, T])),
        (lambda e: update_weights(model, Y, Z, exact=e), A_k + Y @ Z.T),
    ]
    for update, target in cases:
        Uo, so, Vho = np.linalg.svd(target, full_matrices=False)
        scale = max(so[0], 1.0)
        exact, printed = update(True), update(False)
        assert np.allclose(exact.s, so[:k], rtol=0, atol=1e-10 * scale)
        assert np.all(printed.s <= exact.s + 1e-10 * scale)
        gap = so[k - 1] - (so[k] if so.size > k else 0.0)
        if gap > 1e-6 * scale:
            want = (Uo[:, :k] * so[:k]) @ Vho[:k]
            got = (exact.U * exact.s) @ exact.V.T
            assert np.allclose(got, want, rtol=0, atol=1e-9 * scale)
