"""Tests for the evaluation metrics, harness, and pooling."""

import numpy as np
import pytest

from repro.corpus.collection import TestCollection
from repro.errors import EvaluationError
from repro.evaluation.harness import (
    RetrievalRun,
    compare_engines,
    evaluate_run,
    percent_improvement,
    run_engine,
)
from repro.evaluation.metrics import (
    average_precision,
    interpolated_precision_at,
    precision_recall_curve,
    three_point_average_precision,
)
from repro.evaluation.pooling import pooled_judgments
from repro.retrieval.keyword import KeywordRetrieval


# --------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------- #
def test_duplicate_ranking_rejected():
    with pytest.raises(EvaluationError):
        average_precision([1, 1], {1})


def test_precision_recall_curve():
    curve = precision_recall_curve([1, 9, 2], {1, 2})
    assert curve == [(0.5, 1.0), (0.5, 0.5), (1.0, 2 / 3)]
    assert precision_recall_curve([1], set()) == []


def test_interpolated_precision():
    ranking = [1, 9, 2]
    rel = {1, 2}
    # Max precision at recall ≥ 0.5 is 1.0 (rank 1); at recall 1.0, 2/3.
    assert interpolated_precision_at(ranking, rel, 0.5) == 1.0
    assert interpolated_precision_at(ranking, rel, 1.0) == pytest.approx(2 / 3)
    assert interpolated_precision_at(ranking, rel, 0.0) == 1.0
    with pytest.raises(EvaluationError):
        interpolated_precision_at(ranking, rel, 1.5)


def test_perfect_ranking_scores_one():
    ranking = [1, 2, 3, 4]
    rel = {1, 2}
    assert three_point_average_precision(ranking, rel) == 1.0
    assert average_precision(ranking, rel) == 1.0


def test_worst_ranking_scores_low():
    ranking = [3, 4, 1, 2]
    rel = {1, 2}
    assert three_point_average_precision(ranking, rel) == 0.5
    assert average_precision(ranking, rel) == pytest.approx(
        (1 / 3 + 2 / 4) / 2
    )


def test_unretrieved_relevant_penalized():
    # relevant doc 7 never appears in the ranking
    assert average_precision([1, 2], {1, 7}) == pytest.approx(0.5)


def test_three_point_levels_are_papers():
    from repro.evaluation.metrics import THREE_POINT_LEVELS

    assert THREE_POINT_LEVELS == (0.25, 0.50, 0.75)


# --------------------------------------------------------------------- #
# harness
# --------------------------------------------------------------------- #
@pytest.fixture
def tiny_collection():
    return TestCollection(
        documents=["apple pie recipe", "banana bread", "apple tart dessert"],
        queries=["apple dessert", "banana"],
        relevance=[{0, 2}, {1}],
        name="tiny",
    )


def test_run_engine_and_evaluate(tiny_collection):
    kw = KeywordRetrieval.from_texts(tiny_collection.documents)
    run = run_engine(kw, tiny_collection)
    assert run.n_queries == 2
    assert all(len(r) == 3 for r in run.rankings)
    result = evaluate_run(run, tiny_collection)
    assert 0 <= result["mean_metric"] <= 1
    assert result["engine"] == "keyword-vector"
    assert len(result["per_query"]) == 2


def test_evaluate_run_query_count_mismatch(tiny_collection):
    run = RetrievalRun("x", "tiny", [[0, 1, 2]])
    with pytest.raises(EvaluationError):
        evaluate_run(run, tiny_collection)


def test_percent_improvement():
    assert percent_improvement(1.3, 1.0) == pytest.approx(30.0)
    assert percent_improvement(0.5, 1.0) == pytest.approx(-50.0)
    assert percent_improvement(1.0, 0.0) == float("inf")
    assert percent_improvement(0.0, 0.0) == 0.0


def test_compare_engines_summary(tiny_collection):
    kw = KeywordRetrieval.from_texts(tiny_collection.documents)
    cmp = compare_engines(kw, kw, tiny_collection)
    assert cmp.improvement_pct == pytest.approx(0.0)
    assert cmp.candidate["engine"] == cmp.baseline["engine"] == "keyword-vector"


# --------------------------------------------------------------------- #
# pooling
# --------------------------------------------------------------------- #
def test_pooled_judgments_subset_of_truth(tiny_collection):
    kw = KeywordRetrieval.from_texts(tiny_collection.documents)
    run = run_engine(kw, tiny_collection)
    pooled = pooled_judgments([run], tiny_collection, depth=1)
    for q in range(tiny_collection.n_queries):
        assert pooled.relevant(q) <= tiny_collection.relevant(q)
        assert len(pooled.relevant(q)) <= 1


def test_pooled_judgments_depth_validation(tiny_collection):
    kw = KeywordRetrieval.from_texts(tiny_collection.documents)
    run = run_engine(kw, tiny_collection)
    with pytest.raises(EvaluationError):
        pooled_judgments([run], tiny_collection, depth=0)
    with pytest.raises(EvaluationError):
        pooled_judgments([], tiny_collection)


def test_pooling_bias_shrinks_judgments(small_collection, small_lsi):
    """Footnote 1: systems outside the pool can look worse than they
    are — pooled judgments are never larger than the truth."""
    from repro.retrieval.engine import LSIRetrieval

    eng = LSIRetrieval(small_lsi)
    run = run_engine(eng, small_collection)
    pooled = pooled_judgments([run], small_collection, depth=3)
    total_true = sum(len(small_collection.relevant(q)) for q in range(small_collection.n_queries))
    total_pooled = sum(len(pooled.relevant(q)) for q in range(pooled.n_queries))
    assert total_pooled < total_true
