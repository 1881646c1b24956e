"""Tests for orthogonality diagnostics, cost model, and the planner."""

import numpy as np
import pytest

from repro.corpus.med import UPDATE_COLUMNS
from repro.updating.cost_model import (
    fold_documents_flops,
    fold_terms_flops,
    recompute_flops,
    svd_update_flops,
)
from repro.updating.orthogonality import drift_report, fold_in_drift_curve
from repro.updating.planner import plan_update


def test_drift_report_clean_model(med_model):
    rep = drift_report(med_model)
    assert max(rep.term_loss, rep.doc_loss) < 1e-10
    assert rep.provenance == "svd"


def test_drift_curve_monotone_documents(med_model):
    """§4.3 experiment: doc-side loss grows as batches are folded in."""
    batches = [UPDATE_COLUMNS[:, :1], UPDATE_COLUMNS[:, 1:]]
    records = fold_in_drift_curve(med_model, batches)
    assert len(records) == 3
    losses = [r["doc_loss"] for r in records]
    assert losses[0] < 1e-10
    assert losses[-1] >= losses[0]
    assert records[-1]["n_documents"] == 16


def test_drift_curve_with_metric(med_model):
    records = fold_in_drift_curve(
        med_model, [UPDATE_COLUMNS], metric=lambda m: float(m.n_documents)
    )
    assert records[0]["metric"] == 14.0
    assert records[1]["metric"] == 16.0


# --------------------------------------------------------------------- #
# Table 7 cost model
# --------------------------------------------------------------------- #
def test_fold_flops_are_the_printed_formulas():
    assert fold_documents_flops(m=100, k=10, p=3) == 2 * 100 * 10 * 3
    assert fold_terms_flops(n=50, k=10, q=2) == 2 * 50 * 10 * 2


def test_fold_scales_linearly_in_every_argument():
    base = fold_documents_flops(100, 10, 5)
    assert fold_documents_flops(200, 10, 5) == 2 * base
    assert fold_documents_flops(100, 20, 5) == 2 * base
    assert fold_documents_flops(100, 10, 10) == 2 * base


def test_svd_update_dominated_by_dense_rotations():
    """The paper: 'The expense in SVD-updating can be attributed to the
    O(2k²m + 2k²n) flops' — for small updates the (2k²−k)(m+n) term must
    dominate the estimate."""
    m, n, k, p = 10_000, 50_000, 200, 10
    total = svd_update_flops(m, n + p, k, 0, p, nnz=10 * p, iterations=2 * k)
    rotations = (2 * k * k - k) * (m + n + p)
    assert rotations / total > 0.5


def test_folding_much_cheaper_than_updating_for_small_p():
    """Table 7's qualitative claim: d « n ⇒ folding needs far fewer
    flops than SVD-updating."""
    m, n, k = 90_000, 70_000, 200
    ratios = []
    for p in (1, 10, 100):
        fold = fold_documents_flops(m, k, p)
        update = svd_update_flops(m, n + p, k, 0, p, nnz=50 * p)
        ratios.append(update / fold)
        assert update / fold > 3
    # The advantage shrinks as p grows (folding scales with p, the
    # update's dominant rotation term does not).
    assert ratios == sorted(ratios, reverse=True)


def test_update_cheaper_than_recompute_for_dense_collections():
    """The crossover: recomputing pays I·4·nnz over the whole matrix, so
    for dense collections with modest k, updating (whose dominant cost
    is the (2k²−k)(m+n) rotations) wins."""
    m, n, k, p = 90_000, 70_000, 50, 100
    nnz_a = 300 * n
    update = svd_update_flops(m, n + p, k, 0, p, nnz=300 * p)
    recompute = recompute_flops(nnz_a + 300 * p, k)
    assert update < recompute


def test_recompute_can_win_on_sparse_small_k_collections():
    """And the other side of the crossover: very sparse matrices with
    large k make the rotation term dominate — recomputing's flop count
    can drop below updating's (the paper's case for updating is memory
    and incrementality, not raw flops, in this regime)."""
    m, n, k, p = 90_000, 70_000, 200, 500
    nnz_a = 20 * n
    update = svd_update_flops(m, n + p, k, 0, p, nnz=20 * p)
    recompute = recompute_flops(nnz_a + 20 * p, k)
    assert recompute < update


def test_terms_and_correction_formulas_positive():
    assert svd_update_flops(1010, 2000, 50, 10, 0, 500) > 0
    assert svd_update_flops(1000, 2000, 50, 0, 0, 510) > 0


def test_one_formula_prices_every_phase_by_its_core():
    """Eq. 10's documents and Eq. 11's terms are transposes: the same
    core size and updated extent cost the same; a wider core costs
    more by exactly the core's Lanczos and extraction terms."""
    m, n, k, p, nnz = 1000, 2000, 50, 10, 500
    docs = svd_update_flops(m, n + p, k, 0, p, nnz)
    terms = svd_update_flops(m + p, n, k, p, 0, nnz)
    assert docs == terms
    i, t = 2 * k, k
    wider = svd_update_flops(m, n + p, k, p, p, nnz, iterations=i, trp=t)
    printed = svd_update_flops(m, n + p, k, 0, p, nnz, iterations=i, trp=t)
    assert wider - printed == (4 * i + 2 * t) * p * (k + p)


# --------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------- #
def test_planner_folds_small_updates():
    plan = plan_update(m=90_000, n=70_000, k=200, p=100)
    assert plan.method == "fold-in"
    assert plan.new_fraction == pytest.approx(100 / 70_000)
    assert plan.flops["fold-in"] < plan.flops["svd-update"]


def test_planner_updates_when_budget_exceeded():
    plan = plan_update(m=9_000, n=7_000, k=100, p=2_000)
    assert plan.method in ("svd-update", "recompute")
    assert plan.new_fraction > 0.1


def test_planner_recomputes_for_huge_updates():
    plan = plan_update(
        m=900, n=700, k=20, p=100_000, nnz_per_doc=5.0,
        distortion_budget=0.01,
    )
    assert plan.method == "recompute"


def test_planner_validation():
    with pytest.raises(ValueError):
        plan_update(m=0, n=10, k=2, p=1)


def test_planner_reason_is_informative():
    plan = plan_update(m=1000, n=1000, k=50, p=10)
    assert "p/n" in plan.reason
