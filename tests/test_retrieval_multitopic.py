"""Tests for multi-topic (multiple points of interest) queries."""

import numpy as np
import pytest

from repro.core.query import project_query
from repro.errors import ShapeError
from repro.retrieval.multitopic import (
    MultiTopicQuery,
    multi_topic_scores,
    multi_topic_search,
)


def test_query_construction_and_weights(med_model):
    pts = np.ones((2, med_model.k))
    q = MultiTopicQuery(pts)
    assert q.points.shape == (2, med_model.k)
    assert np.allclose(q.weights, [0.5, 0.5])
    q2 = MultiTopicQuery(pts, weights=np.array([3.0, 1.0]))
    assert np.allclose(q2.weights, [0.75, 0.25])


def test_query_validation(med_model):
    with pytest.raises(ShapeError):
        MultiTopicQuery(np.zeros((0, 2)))
    with pytest.raises(ShapeError):
        MultiTopicQuery(np.ones((2, 2)), weights=np.ones(3))
    with pytest.raises(ShapeError):
        MultiTopicQuery(np.ones((2, 2)), weights=np.array([-1.0, 2.0]))
    with pytest.raises(ShapeError):
        MultiTopicQuery.from_texts(med_model, [])


def test_single_point_max_equals_plain_cosine(med_model):
    """With one interest point, every rule reduces to the ordinary
    cosine ranking."""
    from repro.core.similarity import cosine_similarities

    qhat = project_query(med_model, "age blood abnormalities")
    q = MultiTopicQuery(qhat[None, :])
    plain = cosine_similarities(med_model, qhat)
    for rule in ("max", "mean", "density"):
        scores = multi_topic_scores(med_model, q, rule=rule)
        assert np.allclose(scores, plain, atol=1e-9), rule


def test_max_rule_covers_both_facets(med_model):
    """A two-facet query (hormones + rats) must rank the top document of
    EACH facet highly — the centroid query can fail one facet."""
    q = MultiTopicQuery.from_texts(
        med_model, ["oestrogen depressed", "rats fast"]
    )
    ranked = multi_topic_search(med_model, q, rule="max", top=6)
    ids = [d for d, _ in ranked]
    assert any(d in ("M3", "M4") for d in ids)   # hormone cluster
    assert any(d in ("M13", "M14") for d in ids)  # rats cluster


def test_mean_rule_is_weighted_average(med_model):
    q = MultiTopicQuery.from_texts(
        med_model, ["oestrogen", "rats"], weights=[1.0, 0.0]
    )
    single = MultiTopicQuery.from_texts(med_model, ["oestrogen"])
    a = multi_topic_scores(med_model, q, rule="mean")
    b = multi_topic_scores(med_model, single, rule="mean")
    assert np.allclose(a, b, atol=1e-12)


def test_density_temperature_validation(med_model):
    q = MultiTopicQuery.from_texts(med_model, ["rats"])
    with pytest.raises(ShapeError):
        multi_topic_scores(med_model, q, rule="density", temperature=0.0)


def test_unknown_rule(med_model):
    q = MultiTopicQuery.from_texts(med_model, ["rats"])
    with pytest.raises(ValueError):
        multi_topic_scores(med_model, q, rule="min")


def test_dimension_mismatch(med_model):
    with pytest.raises(ShapeError):
        multi_topic_scores(med_model, MultiTopicQuery(np.ones((1, 7))))


def test_search_filters(med_model):
    q = MultiTopicQuery.from_texts(med_model, ["oestrogen", "rats"])
    out = multi_topic_search(med_model, q, rule="max", threshold=0.9)
    assert all(c >= 0.9 for _, c in out)
    out2 = multi_topic_search(med_model, q, top=3)
    assert len(out2) == 3
