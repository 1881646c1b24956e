"""Precision/recall metrics.

Definitions follow the paper (§5.1): "Recall is the proportion of all
relevant documents in the collection that are retrieved by the system;
and precision is the proportion of relevant documents in the set returned
to the user."  Interpolated precision at a recall level uses the standard
TREC convention — the maximum precision at any rank achieving at least
that recall — which is what makes the 3-point average well-defined even
between achievable recall values.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import EvaluationError

__all__ = [
    "precision_recall_curve",
    "interpolated_precision_at",
    "three_point_average_precision",
    "average_precision",
]

#: The paper's summary metric levels (footnote 2 of §5.2).
THREE_POINT_LEVELS = (0.25, 0.50, 0.75)


def _validate(ranking: Sequence[int], relevant: set[int]) -> list[int]:
    ranking = list(ranking)
    if len(set(ranking)) != len(ranking):
        raise EvaluationError("ranking contains duplicate documents")
    return ranking


def precision_recall_curve(
    ranking: Sequence[int], relevant: set[int]
) -> list[tuple[float, float]]:
    """``(recall, precision)`` after each rank position."""
    ranking = _validate(ranking, relevant)
    if not relevant:
        return []
    curve = []
    hits = 0
    for rank, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
        curve.append((hits / len(relevant), hits / rank))
    return curve


def interpolated_precision_at(
    ranking: Sequence[int], relevant: set[int], level: float
) -> float:
    """Max precision over all ranks whose recall ≥ ``level``."""
    if not 0.0 <= level <= 1.0:
        raise EvaluationError(f"recall level {level} outside [0, 1]")
    curve = precision_recall_curve(ranking, relevant)
    candidates = [p for r, p in curve if r >= level - 1e-12]
    return max(candidates, default=0.0)


def three_point_average_precision(
    ranking: Sequence[int], relevant: set[int]
) -> float:
    """The paper's summary metric: mean interpolated precision at recall
    0.25, 0.50, 0.75."""
    return float(
        np.mean(
            [
                interpolated_precision_at(ranking, relevant, lvl)
                for lvl in THREE_POINT_LEVELS
            ]
        )
    )


def average_precision(ranking: Sequence[int], relevant: set[int]) -> float:
    """Non-interpolated AP: mean precision at each relevant document's
    rank (0 contribution for relevant documents never retrieved)."""
    ranking = _validate(ranking, relevant)
    if not relevant:
        return 0.0
    total = 0.0
    hits = 0
    for rank, doc in enumerate(ranking, start=1):
        if doc in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)
