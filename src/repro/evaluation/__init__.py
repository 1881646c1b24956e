"""Retrieval evaluation in the paper's idiom (§5.1 and footnotes 1-2).

"Two measures, precision and recall, are used to summarize retrieval
performance. ... Average precision across several levels of recall can
then be used as a summary measure"; the paper's §5.2 footnote pins the
specific summary: "Performance is average precision over recall levels of
0.25, 0.50 and 0.75."
"""

from repro.evaluation.metrics import (
    average_precision,
    interpolated_precision_at,
    precision_recall_curve,
    three_point_average_precision,
)
from repro.evaluation.harness import (
    EngineComparison,
    RetrievalRun,
    compare_engines,
    evaluate_run,
    percent_improvement,
    run_engine,
)
from repro.evaluation.pooling import pooled_judgments

__all__ = [
    "precision_recall_curve",
    "interpolated_precision_at",
    "three_point_average_precision",
    "average_precision",
    "RetrievalRun",
    "run_engine",
    "evaluate_run",
    "compare_engines",
    "EngineComparison",
    "percent_improvement",
    "pooled_judgments",
]
