"""Fast (Vecharynski-Saad) SVD-updating: exactness, parity, and drift.

Two regimes matter.  With sketch rank ``l >= rank(residual)`` the fast
update *is* the exact Eq. 10 update (the sketch spans the whole
residual), so parity is checked to rounding.  With ``l`` below the
batch width the update is an approximation; the hypothesis properties
pin down what the writer's ingest path actually relies on: factors stay
orthonormal (no §4.3 drift accumulation), the retrieved top-k agrees
with the exact update within tolerance on topic-structured corpora, and
the update is a bit-identical function of its inputs (WAL replay).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.build import fit_lsi_from_tdm
from repro.corpus.med import UPDATE_COLUMNS, med_matrix
from repro.errors import ShapeError
from repro.linalg.orth import orthogonality_loss
from repro.sparse.build import from_dense
from repro.text.tdm import TermDocumentMatrix
from repro.text.vocabulary import Vocabulary
from repro.updating.fast_update import fast_update_documents
from repro.updating.svd_update import update_documents

TOP = 5


@pytest.fixture(scope="module")
def med_model_k5():
    return fit_lsi_from_tdm(med_matrix(), 5)


def _retrieve(model, query_vec, top=TOP):
    """Ranked (doc position, score) pairs for one raw term-count query.

    Directions with numerically-zero singular values (rank-deficient
    corpora) are dropped from the Eq. 6 projection — both models under
    comparison share them, and 1/s there is meaningless noise.
    """
    live = model.s > 1e-10 * model.s[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        qhat = np.where(live, (query_vec @ model.U) / model.s, 0.0)
    coords = model.V * np.where(live, model.s, 0.0)
    norms = np.linalg.norm(coords, axis=1) * np.linalg.norm(qhat)
    scores = coords @ qhat / np.where(norms == 0, 1.0, norms)
    order = np.argsort(-scores, kind="stable")[:top]
    return [(int(i), float(scores[i])) for i in order]


# --------------------------------------------------------------------- #
# the l >= p regime: coincides with the exact update
# --------------------------------------------------------------------- #
def test_full_rank_sketch_matches_exact_update(med_model_k5):
    exact = update_documents(
        med_model_k5, UPDATE_COLUMNS, ["M15", "M16"], exact=True
    )
    fast = fast_update_documents(
        med_model_k5, UPDATE_COLUMNS, ["M15", "M16"], rank=8
    )
    assert np.allclose(fast.s, exact.s, atol=1e-8)
    # Same subspaces: singular values of U_fastᵀ U_exact are all ~1.
    cos = np.linalg.svd(fast.U.T @ exact.U, compute_uv=False)
    assert np.allclose(cos, 1.0, atol=1e-8)
    assert fast.doc_ids[-2:] == ["M15", "M16"]
    assert fast.provenance == "fast-update"


def test_fast_update_is_deterministic(med_model_k5):
    a = fast_update_documents(
        med_model_k5, UPDATE_COLUMNS, ["M15", "M16"], rank=3, seed=7
    )
    b = fast_update_documents(
        med_model_k5, UPDATE_COLUMNS, ["M15", "M16"], rank=3, seed=7
    )
    assert np.array_equal(a.U, b.U)
    assert np.array_equal(a.s, b.s)
    assert np.array_equal(a.V, b.V)


def test_fast_update_rejects_bad_rank(med_model_k5):
    with pytest.raises(ShapeError):
        fast_update_documents(
            med_model_k5, UPDATE_COLUMNS, ["M15", "M16"], rank=0
        )


def test_fast_update_id_count_mismatch(med_model_k5):
    with pytest.raises(ShapeError):
        fast_update_documents(med_model_k5, UPDATE_COLUMNS, ["M15"])


# --------------------------------------------------------------------- #
# hypothesis: parity and bounded drift across batch sizes and k
# --------------------------------------------------------------------- #
@st.composite
def topic_scenario(draw):
    """A topic-structured corpus plus an update batch from the same
    topics — the regime sustained ingest lives in, where the residual
    is (numerically) low-rank and a small sketch must capture it."""
    seed = draw(st.integers(0, 2**16 - 1))
    t = draw(st.integers(2, 3))  # latent topics
    m = draw(st.integers(16, 24))  # terms
    n = draw(st.integers(10, 14))  # base documents
    p = draw(st.integers(1, 6))  # update batch width
    k = draw(st.integers(t + 1, 6))  # retained rank
    rng = np.random.default_rng(seed)
    topics = rng.integers(1, 6, size=(m, t)).astype(float)
    mix = rng.dirichlet(np.ones(t), size=n + p).T  # (t, n+p)
    counts = np.round(topics @ mix * 3.0)
    counts[0, :] += 1.0  # no empty documents
    base, batch = counts[:, :n], counts[:, n:]
    return base, batch, k, seed


def _model_of(base, k):
    m = base.shape[0]
    tdm = TermDocumentMatrix(
        from_dense(base),
        Vocabulary([f"w{i}" for i in range(m)]).freeze(),
        [f"D{j}" for j in range(base.shape[1])],
    )
    return fit_lsi_from_tdm(tdm, k, scheme="raw_none")


@given(topic_scenario())
@settings(max_examples=40, deadline=None)
def test_fast_update_orthonormal_and_full_sketch_parity(scenario):
    """Across batch sizes and k: factors orthonormal to rounding, and
    with the sketch covering the batch the update equals Eq. 10."""
    base, batch, k, seed = scenario
    model = _model_of(base, k)
    ids = [f"N{j}" for j in range(batch.shape[1])]
    fast = fast_update_documents(
        model, batch, ids, rank=batch.shape[1] + 2, seed=seed
    )
    assert orthogonality_loss(fast.U) < 1e-8
    assert orthogonality_loss(fast.V) < 1e-8
    exact = update_documents(model, batch, ids, exact=True)
    assert np.allclose(fast.s, exact.s, atol=1e-6 * max(1.0, exact.s[0]))
    cos = np.linalg.svd(fast.U.T @ exact.U, compute_uv=False)
    assert np.min(cos) > 1.0 - 1e-6


@given(topic_scenario(), st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_small_sketch_retrieval_parity_and_bounded_drift(scenario, top):
    """The writer's actual regime: sketch rank *below* the batch width.

    The subspace may rotate slightly, but retrieval must agree: the
    top-k sets overlap and the per-document cosine scores match the
    exact update within a loose tolerance; drift (departure from
    orthonormality) stays at rounding level no matter the batch/k.
    """
    base, batch, k, seed = scenario
    model = _model_of(base, k)
    ids = [f"N{j}" for j in range(batch.shape[1])]
    rank = max(1, batch.shape[1] - 1)
    fast = fast_update_documents(model, batch, ids, rank=rank, seed=seed)
    exact = update_documents(model, batch, ids, exact=True)
    assert orthogonality_loss(fast.U) < 1e-8
    assert orthogonality_loss(fast.V) < 1e-8
    # Interlacing: the projected spectrum never exceeds the exact one.
    assert np.all(fast.s <= exact.s * (1 + 1e-8) + 1e-10)
    query = np.asarray(base[:, 0], dtype=float)
    got = dict(_retrieve(fast, query, top=fast.n_documents))
    want = dict(_retrieve(exact, query, top=exact.n_documents))
    # Bounded drift, retrieval-side: every document's cosine against
    # the fast factors stays within tolerance of the exact update's.
    diffs = [abs(got[j] - want[j]) for j in want]
    assert max(diffs) < 0.15
    # Top-k parity within tolerance: each of the exact update's top-k
    # documents scores within tolerance of the fast top-k cutoff (rank
    # flips between near-ties are fine; real exclusions are not).
    fast_sorted = sorted(got.values(), reverse=True)
    cutoff = fast_sorted[min(top, len(fast_sorted)) - 1]
    for j, _ in _retrieve(exact, query, top=top):
        assert got[j] >= cutoff - 0.15
