"""Property-based tests for the extension modules (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.serving.ann import kmeans
from repro.updating.cost_model import (
    fold_documents_flops,
    recompute_flops,
    svd_update_flops,
)


@given(
    st.integers(2, 40).flatmap(
        lambda n: st.tuples(
            arrays(
                np.float64, (n, 3),
                elements=st.floats(-50, 50, allow_nan=False, width=64),
            ),
            st.integers(1, min(n, 6)),
            st.integers(0, 2**31 - 1),
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_kmeans_invariants(args):
    """Every point is assigned to its nearest centroid, and the returned
    centroids/assignment are a complete partition."""
    X, c, seed = args
    centroids, assignment = kmeans(X, c, seed=seed)
    assert centroids.shape == (c, 3)
    assert assignment.shape == (X.shape[0],)
    assert assignment.min() >= 0 and assignment.max() < c
    # Nearest-centroid property of the final assignment.
    d2 = (
        np.sum(X**2, axis=1)[:, None]
        - 2 * X @ centroids.T
        + np.sum(centroids**2, axis=1)[None, :]
    )
    own = d2[np.arange(X.shape[0]), assignment]
    assert np.all(own <= d2.min(axis=1) + 1e-7)


@given(
    st.integers(1, 10**5),  # m
    st.integers(1, 10**5),  # n
    st.integers(1, 400),    # k
    st.integers(1, 10**4),  # p
    st.integers(0, 10**6),  # nnz_d
)
@settings(max_examples=60, deadline=None)
def test_cost_model_sanity(m, n, k, p, nnz_d):
    """Flop estimates are positive and monotone in every size argument."""
    fold = fold_documents_flops(m, k, p)
    update = svd_update_flops(m, n + p, k, 0, p, nnz_d)
    recompute = recompute_flops(nnz_d + 10 * n, k)
    assert fold > 0 and update > 0 and recompute > 0
    assert fold_documents_flops(m + 1, k, p) >= fold
    assert fold_documents_flops(m, k + 1, p) >= fold
    assert fold_documents_flops(m, k, p + 1) >= fold
    assert svd_update_flops(m + 1, n + p, k, 0, p, nnz_d) >= update
    assert svd_update_flops(m, n + p + 1, k, 0, p, nnz_d) >= update
    assert svd_update_flops(m, n + p, k, 0, p, nnz_d + 1) >= update
    assert svd_update_flops(m, n + p, k, 1, p, nnz_d) >= update
