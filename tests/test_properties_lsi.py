"""Property-based tests for LSI-level invariants (hypothesis).

These check the algebraic identities the paper's machinery rests on over
randomized inputs: weighting factorization (Eq. 5), the query/fold-in
duality (Eq. 6 ≡ Eq. 7), update exactness, and metric boundedness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.model import LSIModel
from repro.core.query import project_terms
from repro.evaluation.metrics import (
    average_precision,
    three_point_average_precision,
)
from repro.linalg import dense_svd
from repro.sparse import from_dense
from repro.text import Vocabulary
from repro.updating.folding import fold_in_documents
from repro.updating.svd_update import update_documents
from repro.weighting import WeightingScheme, apply_weighting


@st.composite
def count_matrix(draw, max_m=10, max_n=8):
    m = draw(st.integers(2, max_m))
    n = draw(st.integers(2, max_n))
    counts = draw(
        arrays(
            np.float64, (m, n),
            elements=st.integers(0, 5).map(float),
        )
    )
    return counts


@given(count_matrix(), st.sampled_from(["raw", "log", "binary", "sqrt"]),
       st.sampled_from(["none", "idf", "entropy", "normal", "gfidf"]))
@settings(max_examples=60, deadline=None)
def test_weighting_factorizes_rowwise(counts, loc, glob):
    """Eq. 5: the weighted matrix is L(i,j) scaled per row by G(i) —
    i.e. two documents with equal counts for a term get weights in the
    same global proportion."""
    csc = from_dense(counts)
    wm = apply_weighting(csc, WeightingScheme(loc, glob))
    W = wm.matrix.to_dense()
    g = wm.global_weights
    # reconstruct the implied local part and check it's independent of i
    # scaling: W[i, j] / g[i] must depend only on counts[i, j].
    seen = {}
    for i in range(counts.shape[0]):
        if g[i] == 0:
            continue
        for j in range(counts.shape[1]):
            key = counts[i, j]
            val = W[i, j] / g[i]
            if key in seen:
                assert abs(seen[key] - val) < 1e-9
            else:
                seen[key] = val


@given(count_matrix(), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_fold_in_equals_query_projection(counts, k, seed):
    """Eq. 7 ≡ Eq. 6 for every weighting-free model and document."""
    m, n = counts.shape
    k = min(k, m, n)
    U, s, V = dense_svd(counts)
    if s[k - 1] <= 1e-10:  # degenerate spectra: projection undefined
        return
    model = LSIModel(
        U[:, :k], s[:k], V[:, :k],
        Vocabulary([f"t{i}" for i in range(m)]).freeze(),
        [f"d{j}" for j in range(n)],
    )
    rng = np.random.default_rng(seed)
    doc = rng.integers(0, 4, m).astype(float)
    folded = fold_in_documents(model, doc[:, None], ["new"])
    ids = np.flatnonzero(doc)
    assert np.allclose(
        folded.V[-1], project_terms(model, ids, doc[ids]), atol=1e-9
    )
    # old coordinates bit-identical
    assert np.array_equal(folded.V[:-1], model.V)


@given(count_matrix(max_m=9, max_n=7), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_exact_update_matches_direct_svd(counts, seed):
    """Eq. 10 with residual: singular values equal the direct SVD of
    (A_k | D) for arbitrary D."""
    m, n = counts.shape
    k = min(3, m, n)
    U, s, V = dense_svd(counts)
    if s[k - 1] <= 1e-8:
        return
    model = LSIModel(
        U[:, :k], s[:k], V[:, :k],
        Vocabulary([f"t{i}" for i in range(m)]).freeze(),
        [f"d{j}" for j in range(n)],
    )
    rng = np.random.default_rng(seed)
    D = rng.integers(0, 3, (m, 2)).astype(float)
    updated = update_documents(model, D, ["x", "y"], exact=True)
    B = np.hstack([(model.U * model.s) @ model.V.T, D])
    s_ref = np.linalg.svd(B, compute_uv=False)[:k]
    assert np.allclose(updated.s, s_ref, atol=1e-8)
    # And the paper's projection variant is dominated by it.
    approx = update_documents(model, D, ["x", "y"])
    assert np.all(approx.s <= updated.s + 1e-9)


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=20, unique=True),
    st.sets(st.integers(0, 30), min_size=1, max_size=10),
)
@settings(max_examples=80, deadline=None)
def test_metrics_bounded_and_consistent(ranking, relevant):
    """All metrics live in [0, 1]; perfect prefix ranking maximizes them."""
    for metric in (
        three_point_average_precision,
        average_precision,
    ):
        val = metric(ranking, relevant)
        assert 0.0 <= val <= 1.0
    # A ranking that lists all relevant docs first scores 1 in AP.
    ideal = sorted(relevant) + [d for d in ranking if d not in relevant]
    assert average_precision(ideal, relevant) == 1.0
