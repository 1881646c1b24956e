"""Property-based tests for the sparse substrate (hypothesis).

The invariants: every format round-trips through dense unchanged; the
matvec/matmat kernels agree with the dense reference on arbitrary
matrices including pathological sparsity patterns (empty rows/columns,
duplicate assembly coordinates).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse import COOMatrix, from_dense


@st.composite
def sparse_dense_pair(draw, max_dim=12):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    values = draw(
        arrays(
            np.float64,
            (m, n),
            elements=st.floats(-10, 10, allow_nan=False, width=64),
        )
    )
    mask = draw(
        arrays(np.bool_, (m, n), elements=st.booleans())
    )
    return values * mask


@given(sparse_dense_pair())
@settings(max_examples=60, deadline=None)
def test_roundtrip_all_formats(dense):
    coo = from_dense(dense)
    assert np.array_equal(coo.to_dense(), coo.to_csr().to_dense())
    assert np.array_equal(coo.to_dense(), coo.to_csc().to_dense())
    # from_dense drops exact zeros only; stored values match the source.
    assert np.array_equal(coo.to_dense(), dense * (dense != 0))


@given(sparse_dense_pair(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_matvec_matches_dense(dense, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dense.shape[1])
    y = rng.standard_normal(dense.shape[0])
    csr = from_dense(dense).to_csr()
    csc = from_dense(dense).to_csc()
    assert np.allclose(csr.matvec(x), dense @ x, atol=1e-9)
    assert np.allclose(csc.matvec(x), dense @ x, atol=1e-9)
    assert np.allclose(csr.rmatvec(y), dense.T @ y, atol=1e-9)
    assert np.allclose(csc.rmatvec(y), dense.T @ y, atol=1e-9)


@given(sparse_dense_pair(), st.integers(1, 7), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_matmat_matches_dense(dense, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dense.shape[1], k))
    csr = from_dense(dense).to_csr()
    csc = from_dense(dense).to_csc()
    assert np.allclose(csr.matmat(X), dense @ X, atol=1e-9)
    assert np.allclose(csc.matmat(X), dense @ X, atol=1e-9)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-5, 5, allow_nan=False)),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_duplicate_assembly_matches_scatter_add(triples):
    ref = np.zeros((6, 6))
    for i, j, v in triples:
        ref[i, j] += v
    rows = [t[0] for t in triples]
    cols = [t[1] for t in triples]
    vals = [t[2] for t in triples]
    coo = COOMatrix((6, 6), rows, cols, vals)
    assert np.allclose(coo.to_dense(), ref, atol=1e-12)
