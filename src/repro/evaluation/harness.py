"""The run-and-evaluate harness the §5 benchmarks are built on.

``run_engine`` executes every query of a test collection against one
engine; ``evaluate_run`` scores the run; ``compare_engines`` produces the
percent-improvement numbers the paper reports ("the average precision
using LSI ranged from comparable to 30% better than ... standard keyword
vector methods").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.corpus.collection import TestCollection
from repro.errors import EvaluationError
from repro.evaluation.metrics import (
    average_precision,
    three_point_average_precision,
)

__all__ = [
    "RetrievalRun",
    "run_engine",
    "evaluate_run",
    "compare_engines",
    "EngineComparison",
    "percent_improvement",
]


@dataclass
class RetrievalRun:
    """Per-query rankings produced by one engine on one collection."""

    engine_name: str
    collection_name: str
    rankings: list[list[int]]  # per query, documents in ranked order
    scores: list[list[float]] = field(default_factory=list)

    @property
    def n_queries(self) -> int:
        """Number of queries in the run."""
        return len(self.rankings)


def run_engine(engine, collection: TestCollection) -> RetrievalRun:
    """Rank all documents for every query of ``collection``."""
    rankings: list[list[int]] = []
    scores: list[list[float]] = []
    for q in collection.queries:
        ranked = engine.search(q)
        rankings.append([j for j, _ in ranked])
        scores.append([c for _, c in ranked])
    return RetrievalRun(
        engine_name=getattr(engine, "name", type(engine).__name__),
        collection_name=collection.name,
        rankings=rankings,
        scores=scores,
    )


def evaluate_run(
    run: RetrievalRun,
    collection: TestCollection,
    *,
    metric: Callable[[list[int], set[int]], float] | None = None,
) -> dict:
    """Score a run; the default metric is the paper's 3-point average
    precision, with the non-interpolated AP reported alongside."""
    if run.n_queries != collection.n_queries:
        raise EvaluationError(
            f"run has {run.n_queries} queries, collection "
            f"{collection.n_queries}"
        )
    metric = metric or three_point_average_precision
    per_query = [
        metric(ranking, collection.relevant(q))
        for q, ranking in enumerate(run.rankings)
    ]
    ap = [
        average_precision(ranking, collection.relevant(q))
        for q, ranking in enumerate(run.rankings)
    ]
    return {
        "engine": run.engine_name,
        "collection": run.collection_name,
        "mean_metric": float(np.mean(per_query)) if per_query else 0.0,
        "mean_average_precision": float(np.mean(ap)) if ap else 0.0,
        "per_query": per_query,
    }


def percent_improvement(candidate: float, baseline: float) -> float:
    """The paper's comparison statistic: 100 · (candidate − base) / base."""
    if baseline <= 0:
        return float("inf") if candidate > 0 else 0.0
    return 100.0 * (candidate - baseline) / baseline


@dataclass(frozen=True)
class EngineComparison:
    """Side-by-side result of two engines on one collection."""

    candidate: dict
    baseline: dict

    @property
    def improvement_pct(self) -> float:
        """Candidate's percent improvement over the baseline metric."""
        return percent_improvement(
            self.candidate["mean_metric"], self.baseline["mean_metric"]
        )


def compare_engines(
    candidate, baseline, collection: TestCollection, *, metric=None
) -> EngineComparison:
    """Run both engines on the collection and compare summary metrics."""
    cand = evaluate_run(run_engine(candidate, collection), collection, metric=metric)
    base = evaluate_run(run_engine(baseline, collection), collection, metric=metric)
    return EngineComparison(candidate=cand, baseline=base)
