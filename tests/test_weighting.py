"""Tests for local/global weights, scheme composition, and corrections."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.sparse.build import from_dense
from repro.weighting.correction import weight_correction_blocks
from repro.weighting.global_ import global_weight
from repro.weighting.local import local_weight
from repro.weighting.schemes import WeightingScheme, apply_weighting


@pytest.fixture
def counts(rng):
    return rng.poisson(1.2, (12, 8)).astype(np.float64)


@pytest.fixture
def csc(counts):
    return from_dense(counts)


# --------------------------------------------------------------------- #
# local weights
# --------------------------------------------------------------------- #
def test_local_raw_identity():
    f = np.array([0.0, 1, 3])
    assert np.array_equal(local_weight("raw", f), f)
    assert np.array_equal(local_weight("tf", f), f)


def test_local_binary():
    assert np.array_equal(local_weight("binary", np.array([0.0, 2, 5])), [0, 1, 1])


def test_local_log():
    f = np.array([0.0, 1.0, 3.0])
    assert np.allclose(local_weight("log", f), np.log2(f + 1))


def test_local_sqrt():
    assert np.allclose(local_weight("sqrt", np.array([4.0, 9.0])), [2, 3])


def test_local_augmented_requires_col_max():
    with pytest.raises(ValueError):
        local_weight("augmented", np.ones(3))
    out = local_weight("augmented", np.array([2.0, 0.0]), np.array([4.0, 4.0]))
    assert np.allclose(out, [0.75, 0.0])


def test_local_unknown_name():
    with pytest.raises(ValueError):
        local_weight("quadratic", np.ones(2))


def test_all_locals_map_zero_to_zero(csc):
    for name in ("raw", "binary", "log", "sqrt"):
        out = local_weight(name, np.zeros(4))
        assert np.all(out == 0)


# --------------------------------------------------------------------- #
# global weights
# --------------------------------------------------------------------- #
def test_global_none(csc):
    assert np.allclose(global_weight("none", csc), 1.0)


def test_global_idf_definition(counts, csc):
    g = global_weight("idf", csc)
    n = counts.shape[1]
    df = (counts > 0).sum(axis=1)
    expect = np.where(df > 0, np.log2(n / np.where(df > 0, df, 1)) + 1, 1.0)
    assert np.allclose(g, expect)


def test_global_entropy_range_and_extremes():
    # term 0: single document → weight 1; term 1: uniform → weight ~0.
    d = np.zeros((2, 4))
    d[0, 0] = 5
    d[1, :] = 3
    g = global_weight("entropy", from_dense(d))
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(0.0, abs=1e-12)


def test_global_entropy_matches_dense_reference(counts, csc):
    g = global_weight("entropy", csc)
    gf = counts.sum(axis=1)
    p = counts / np.where(gf > 0, gf, 1)[:, None]
    ent = 1 + np.where(p > 0, p * np.log2(np.where(p > 0, p, 1)), 0).sum(axis=1) / np.log2(counts.shape[1])
    assert np.allclose(g, ent)


def test_global_gfidf(counts, csc):
    g = global_weight("gfidf", csc)
    gf = counts.sum(axis=1)
    df = (counts > 0).sum(axis=1)
    expect = np.where(df > 0, gf / np.where(df > 0, df, 1), 1.0)
    assert np.allclose(g, expect)


def test_global_normal_normalizes_rows(counts, csc):
    g = global_weight("normal", csc)
    scaled = counts * g[:, None]
    norms = np.sqrt((scaled**2).sum(axis=1))
    used = counts.sum(axis=1) > 0
    assert np.allclose(norms[used], 1.0)


def test_global_unknown_name(csc):
    with pytest.raises(ValueError):
        global_weight("tfidf2", csc)


def test_entropy_single_document_collection():
    d = np.array([[2.0], [1.0]])
    g = global_weight("entropy", from_dense(d))
    assert np.allclose(g, 1.0)  # n=1: no entropy information


# --------------------------------------------------------------------- #
# schemes
# --------------------------------------------------------------------- #
def test_scheme_validation():
    with pytest.raises(ValueError):
        WeightingScheme("nope", "none")
    with pytest.raises(ValueError):
        WeightingScheme("raw", "nope")


def test_scheme_from_name():
    s = WeightingScheme.from_name("log_entropy")
    assert (s.local, s.global_) == ("log", "entropy")
    s2 = WeightingScheme.from_name("log×entropy")
    assert s2 == s
    s3 = WeightingScheme.from_name("binary")
    assert (s3.local, s3.global_) == ("binary", "none")


def test_apply_weighting_log_entropy(counts, csc):
    wm = apply_weighting(csc, WeightingScheme("log", "entropy"))
    gf = counts.sum(axis=1)
    p = counts / np.where(gf > 0, gf, 1)[:, None]
    ent = 1 + np.where(p > 0, p * np.log2(np.where(p > 0, p, 1)), 0).sum(axis=1) / np.log2(counts.shape[1])
    assert np.allclose(wm.matrix.to_dense(), np.log2(counts + 1) * ent[:, None])


def test_apply_weighting_augmented(counts, csc):
    wm = apply_weighting(csc, WeightingScheme("augmented", "none"))
    colmax = counts.max(axis=0)
    expect = np.where(
        counts > 0, 0.5 + 0.5 * counts / np.where(colmax > 0, colmax, 1), 0.0
    )
    assert np.allclose(wm.matrix.to_dense(), expect)


# --------------------------------------------------------------------- #
# weight-correction blocks (Eq. 12)
# --------------------------------------------------------------------- #
def test_correction_blocks_reconstruct_difference(counts, csc):
    old = apply_weighting(csc, WeightingScheme("raw", "none")).matrix
    new = apply_weighting(csc, WeightingScheme("raw", "idf")).matrix
    diff_rows = np.flatnonzero(
        np.abs(old.to_dense() - new.to_dense()).sum(axis=1) > 0
    )
    Y, Z = weight_correction_blocks(old, new, diff_rows)
    assert Y.shape == (counts.shape[0], diff_rows.size)
    assert Z.shape == (counts.shape[1], diff_rows.size)
    assert np.allclose(old.to_dense() + Y @ Z.T, new.to_dense())


def _parent_blocks(old, new, term_ids):
    """``(Y, Z)`` the per-term way: for each term, a dense row set to the
    new weights, then the old ones subtracted."""
    old_d, new_d = old.to_dense(), new.to_dense()
    Y = np.zeros((old.shape[0], len(term_ids)))
    Z = np.zeros((old.shape[1], len(term_ids)))
    for l, t in enumerate(term_ids):
        Y[t, l] = 1.0
        Z[:, l] = new_d[t] - old_d[t]
    return Y, Z


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def test_correction_blocks_bit_equal_on_fig9_inputs(med_tdm):
    """The Eq. 12 blocks of ``bench_fig9_svd_update.py``: MED re-weighted
    from raw to idf over all 18 term rows."""
    old = apply_weighting(med_tdm.matrix, WeightingScheme("raw", "none")).matrix
    new = apply_weighting(med_tdm.matrix, WeightingScheme("raw", "idf")).matrix
    ids = list(range(med_tdm.matrix.shape[0]))
    Y, Z = weight_correction_blocks(old, new, ids)
    want_Y, want_Z = _parent_blocks(old, new, ids)
    assert _same_bits(Y, want_Y) and _same_bits(Z, want_Z)


def test_correction_blocks_bit_equal_with_zero_rows(rng):
    """Rows that are zero in one or both matrices, ids out of order."""
    counts = np.floor(rng.random((30, 25)) * 4) * (rng.random((30, 25)) < 0.3)
    counts[[2, 5, 11]] = 0.0
    counts[:, [0, 9]] = 0.0
    old = apply_weighting(from_dense(counts), WeightingScheme("log", "entropy")).matrix
    extra = counts.copy()
    extra[5, 3] = 2.0  # a row zero in old only
    new = apply_weighting(from_dense(extra), WeightingScheme("raw", "idf")).matrix
    ids = [11, 0, 5, 2, 20, 29, 7]
    Y, Z = weight_correction_blocks(old, new, ids)
    want_Y, want_Z = _parent_blocks(old, new, ids)
    assert _same_bits(Y, want_Y) and _same_bits(Z, want_Z)
    assert np.allclose((old.to_dense() + Y @ Z.T)[ids], new.to_dense()[ids])


def test_correction_blocks_empty():
    a = from_dense(np.eye(3))
    Y, Z = weight_correction_blocks(a, a, [])
    assert Y.shape == (3, 0) and Z.shape == (3, 0)


def test_correction_blocks_validation(csc):
    with pytest.raises(ShapeError):
        weight_correction_blocks(csc, from_dense(np.eye(3)), [0])
    with pytest.raises(ShapeError):
        weight_correction_blocks(csc, csc, [0, 0])
    with pytest.raises(ShapeError):
        weight_correction_blocks(csc, csc, [999])
