"""Property-based tests for the sparse substrate (hypothesis).

The invariants: a CSC matrix round-trips through dense unchanged; the
matvec/matmat kernels agree with the dense reference on arbitrary
matrices including pathological sparsity patterns (empty rows/columns);
assembly from triples sums duplicate coordinates and sorts rows within
each column.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse import CSCMatrix, from_dense


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


def assert_rows_sorted(csc):
    """Row ids strictly increase within every column."""
    steps = np.diff(csc.indices)
    inside = np.ones(steps.size, dtype=bool)
    starts = csc.indptr[1:-1]
    inside[starts[(starts > 0) & (starts < csc.nnz)] - 1] = False
    assert np.all(steps[inside] > 0)


@given(sparse_dense_pair())
@settings(max_examples=60, deadline=None)
def test_roundtrip_all_formats(dense):
    csc = from_dense(dense)
    # from_dense drops exact zeros only; stored values match the source.
    assert np.array_equal(csc.to_dense(), dense * (dense != 0))
    assert csc.nnz == np.count_nonzero(dense)
    assert_rows_sorted(csc)


@given(sparse_dense_pair(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_matvec_matches_dense(dense, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dense.shape[1])
    y = rng.standard_normal(dense.shape[0])
    csc = from_dense(dense)
    assert np.allclose(csc.matvec(x), dense @ x, atol=1e-9)
    assert np.allclose(csc.rmatvec(y), dense.T @ y, atol=1e-9)


@given(sparse_dense_pair(), st.integers(1, 7), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_matmat_matches_dense(dense, k, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((dense.shape[1], k))
    csc = from_dense(dense)
    assert np.allclose(csc.matmat(X), dense @ X, atol=1e-9)


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(-5, 5, allow_nan=False)),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_duplicate_assembly_matches_scatter_add(triples):
    rows = np.array([t[0] for t in triples], dtype=np.int64)
    cols = np.array([t[1] for t in triples], dtype=np.int64)
    vals = np.array([t[2] for t in triples], dtype=np.float64)
    ref = np.zeros((6, 6))
    np.add.at(ref, (rows, cols), vals)
    csc = CSCMatrix.from_triples((6, 6), rows, cols, vals)
    assert np.allclose(csc.to_dense(), ref, atol=1e-12)
    # one stored entry per distinct coordinate
    assert csc.nnz == len(set(zip(rows.tolist(), cols.tolist())))
    assert_rows_sorted(csc)
