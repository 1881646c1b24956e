"""Tests for the k-selection heuristics (§5.2)."""

import numpy as np
import pytest

from repro.core.build import fit_lsi
from repro.core.kselect import (
    choose_k_by_energy,
    choose_k_by_gap,
    choose_k_by_sweep,
)
from repro.errors import ShapeError


# --------------------------------------------------------------------- #
# energy
# --------------------------------------------------------------------- #
def test_energy_basic():
    s = np.array([3.0, 2.0, 1.0, 0.5])
    # cumulative energy fractions: 9/14.25, 13/14.25, 14/14.25, 1.0
    sel = choose_k_by_energy(s, target=0.6)
    assert sel.k == 1
    assert choose_k_by_energy(s, target=0.95).k == 3
    assert choose_k_by_energy(s, target=1.0).k == 4
    assert sel.criterion == "energy"
    assert len(sel.curve) == 4


def test_energy_exact_boundary():
    s = np.array([1.0, 1.0])
    assert choose_k_by_energy(s, target=0.5).k == 1


def test_energy_zero_spectrum():
    assert choose_k_by_energy(np.zeros(3)).k == 1


def test_energy_validation():
    with pytest.raises(ShapeError):
        choose_k_by_energy(np.array([]))
    with pytest.raises(ShapeError):
        choose_k_by_energy(np.ones(3), target=0.0)
    with pytest.raises(ShapeError):
        choose_k_by_energy(np.array([-1.0, 1.0]))


# --------------------------------------------------------------------- #
# gap
# --------------------------------------------------------------------- #
def test_gap_finds_spectral_cliff():
    s = np.array([10.0, 9.0, 8.5, 0.1, 0.09])
    assert choose_k_by_gap(s).k == 3


def test_gap_min_k_skips_early_gaps():
    s = np.array([100.0, 1.0, 0.9, 0.1])
    assert choose_k_by_gap(s).k == 1
    assert choose_k_by_gap(s, min_k=2).k == 3


def test_gap_zero_tail():
    s = np.array([5.0, 2.0, 0.0])
    assert choose_k_by_gap(s).k == 2  # infinite ratio at the zero


def test_gap_validation():
    with pytest.raises(ShapeError):
        choose_k_by_gap(np.array([1.0]))
    with pytest.raises(ShapeError):
        choose_k_by_gap(np.ones(4), min_k=4)


# --------------------------------------------------------------------- #
# sweep
# --------------------------------------------------------------------- #
def test_sweep_returns_argmax(small_collection, small_lsi):
    from repro.evaluation.metrics import three_point_average_precision
    from repro.retrieval.engine import LSIRetrieval

    def metric(model):
        eng = LSIRetrieval(model)
        vals = []
        for qi, q in enumerate(small_collection.queries):
            ranked = [j for j, _ in eng.search(q)]
            vals.append(
                three_point_average_precision(
                    ranked, small_collection.relevant(qi)
                )
            )
        return float(np.mean(vals))

    sel = choose_k_by_sweep(small_lsi, metric, candidates=[2, 4, 8])
    assert sel.k in (2, 4, 8)
    assert sel.criterion == "sweep"
    assert len(sel.curve) == 3
    assert max(sel.curve) == sel.curve[[2, 4, 8].index(sel.k)]


def test_sweep_default_ladder(small_lsi):
    sel = choose_k_by_sweep(small_lsi, lambda m: float(m.k))  # prefers big k
    assert sel.k == small_lsi.k


def test_sweep_validation(small_lsi):
    with pytest.raises(ShapeError):
        choose_k_by_sweep(small_lsi, lambda m: 0.0, candidates=[])
    with pytest.raises(ShapeError):
        choose_k_by_sweep(small_lsi, lambda m: 0.0, candidates=[99])


def test_energy_selector_on_real_model(med_model_k8):
    sel = choose_k_by_energy(med_model_k8.s, target=0.75)
    assert 1 <= sel.k <= med_model_k8.k
