"""Golden numeric regression tests.

Pins exact values produced by the from-scratch numeric stack on fixed
seeded inputs, so silent changes to Lanczos/dense-SVD/weighting arithmetic
are caught even when all property tests still pass (e.g. a tolerance
loosening that shifts converged digits).
"""

import numpy as np
import pytest

from repro.core.build import fit_lsi_from_tdm
from repro.core.query import project_query
from repro.corpus.med import MED_QUERY, med_matrix
from repro.linalg.lanczos import lanczos_svd
from repro.linalg.svd import dense_svd, truncated_svd
from repro.sparse.build import from_dense
from repro.weighting.schemes import WeightingScheme, apply_weighting


def _fixed_matrix():
    rng = np.random.default_rng(20260706)
    return rng.standard_normal((24, 18)) * (rng.random((24, 18)) < 0.4)


def test_dense_svd_singular_values_pinned():
    _, s, _ = dense_svd(_fixed_matrix())
    # First three singular values to 10 decimals (LAPACK cross-checked).
    expected = np.linalg.svd(_fixed_matrix(), compute_uv=False)[:3]
    assert np.allclose(s[:3], expected, atol=1e-10)
    assert s[0] == pytest.approx(expected[0], abs=1e-11)


def test_lanczos_matches_dense_svd_to_high_precision():
    d = _fixed_matrix()
    a = from_dense(d)
    _, s_l, _, _ = lanczos_svd(a, 5, seed=0)
    _, s_d, _ = dense_svd(d)
    assert np.allclose(s_l, s_d[:5], atol=1e-9)


def test_med_sigma_pinned(med_tdm):
    model = fit_lsi_from_tdm(med_tdm, 2)
    assert model.s[0] == pytest.approx(3.5135686, abs=1e-6)
    assert model.s[1] == pytest.approx(2.6463884, abs=1e-6)


def test_med_query_cosines_pinned(med_model):
    from repro.core.similarity import cosine_similarities

    qhat = project_query(med_model, MED_QUERY)
    cos = cosine_similarities(med_model, qhat)
    by_id = dict(zip(med_model.doc_ids, cos))
    assert by_id["M8"] == pytest.approx(0.9226, abs=2e-4)
    assert by_id["M12"] == pytest.approx(0.9120, abs=2e-4)
    assert by_id["M9"] == pytest.approx(0.8912, abs=2e-4)
    assert by_id["M11"] == pytest.approx(0.8740, abs=2e-4)


def test_log_entropy_weights_pinned():
    counts = np.array(
        [[3.0, 0.0, 1.0], [1.0, 1.0, 1.0], [0.0, 2.0, 0.0]]
    )
    wm = apply_weighting(
        from_dense(counts), WeightingScheme("log", "entropy")
    )
    # term 1 is uniform over 3 docs → entropy weight 0; term 2 single-doc
    # → weight 1.
    assert wm.global_weights[1] == pytest.approx(0.0, abs=1e-12)
    assert wm.global_weights[2] == pytest.approx(1.0)
    # term 0: p = (3/4, 0, 1/4); G = 1 + (p·log2 p)/log2 3
    p = np.array([0.75, 0.25])
    g0 = 1 + np.sum(p * np.log2(p)) / np.log2(3)
    assert wm.global_weights[0] == pytest.approx(g0)
    w = wm.matrix.to_dense()
    assert w[2, 1] == pytest.approx(np.log2(3.0))  # log2(2+1) * 1.0


def test_truncated_svd_backend_agreement_tight():
    d = _fixed_matrix()
    a = from_dense(d)
    results = {
        m: truncated_svd(a, 4, method=m).s
        for m in ("dense", "lanczos")
    }
    for name, s in results.items():
        assert np.allclose(s, results["dense"], atol=1e-8), name
