"""Multi-topic queries: multiple points of interest (§5.4, ref [18]).

"Queries can even be represented as multiple points of interest" — the
relevance-density method of Kane-Esrig et al.  Instead of collapsing a
multi-faceted information need into one centroid vector (which can land
in empty space between the facets), the query is a *set* of k-space
points, and a document's score combines its proximity to each point.

Three combination rules are provided:

* ``"max"`` — a document is relevant if it is close to *any* facet
  (disjunctive needs: "cars OR pottery");
* ``"mean"`` — the average proximity (soft conjunction);
* ``"density"`` — a kernel-density relevance estimate: each interest
  point contributes ``wᵢ · exp(cosᵢ/τ)``, normalized — the smooth
  weighting of the original method, with facet weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import ShapeError
from repro.serving.kernel import cosine_scores

__all__ = ["MultiTopicQuery", "multi_topic_scores", "multi_topic_search"]


@dataclass
class MultiTopicQuery:
    """A query made of several k-space interest points.

    Attributes
    ----------
    points:
        ``(t, k)`` array, one row per interest point.
    weights:
        Per-point importance, normalized to sum to 1.
    labels:
        Optional facet names for reporting.
    """

    points: np.ndarray
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        t = self.points.shape[0]
        if t == 0:
            raise ShapeError("a multi-topic query needs at least one point")
        if self.weights is None:
            self.weights = np.full(t, 1.0 / t)
        else:
            self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
            if self.weights.size != t:
                raise ShapeError(
                    f"{self.weights.size} weights for {t} interest points"
                )
            if np.any(self.weights < 0) or self.weights.sum() <= 0:
                raise ShapeError("weights must be non-negative, not all zero")
            self.weights = self.weights / self.weights.sum()
        if self.labels and len(self.labels) != t:
            raise ShapeError("labels must match the number of points")

    @classmethod
    def from_texts(
        cls,
        model: LSIModel,
        facets: Sequence[str],
        *,
        weights: Sequence[float] | None = None,
    ) -> "MultiTopicQuery":
        """Build one interest point per facet text via Eq. 6."""
        if not facets:
            raise ShapeError("need at least one facet text")
        points = np.stack([project_query(model, f) for f in facets])
        return cls(
            points,
            None if weights is None else np.asarray(weights, float),
            labels=list(facets),
        )


def _facet_cosines(model: LSIModel, query: MultiTopicQuery) -> np.ndarray:
    """(t, n) cosine of each interest point with each document."""
    return cosine_scores(model.V * model.s, query.points * model.s)


def multi_topic_scores(
    model: LSIModel,
    query: MultiTopicQuery,
    *,
    rule: str = "density",
    temperature: float = 0.1,
) -> np.ndarray:
    """Score every document against a multi-point query (length n)."""
    if query.points.shape[1] != model.k:
        raise ShapeError(
            f"interest points have {query.points.shape[1]} dims for "
            f"k={model.k}"
        )
    cos = _facet_cosines(model, query)
    if rule == "max":
        return cos.max(axis=0)
    if rule == "mean":
        return query.weights @ cos
    if rule == "density":
        if temperature <= 0:
            raise ShapeError("temperature must be positive")
        # Normalized kernel density over the interest points; scores stay
        # within the cosine range so thresholds remain interpretable.
        kernel = np.exp((cos - 1.0) / temperature)  # in (0, 1]
        density = query.weights @ (kernel * cos)
        norm = query.weights @ kernel
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(norm > 0, density / norm, 0.0)
    raise ValueError(f"unknown combination rule {rule!r}")


def multi_topic_search(
    model: LSIModel,
    query: MultiTopicQuery,
    *,
    rule: str = "density",
    top: int | None = None,
    threshold: float | None = None,
    temperature: float = 0.1,
) -> list[tuple[str, float]]:
    """Ranked ``(doc_id, score)`` results for a multi-point query."""
    scores = multi_topic_scores(
        model, query, rule=rule, temperature=temperature
    )
    order = np.argsort(-scores, kind="stable")
    out = [(model.doc_ids[int(j)], float(scores[j])) for j in order]
    if threshold is not None:
        out = [(d, c) for d, c in out if c >= threshold]
    if top is not None:
        out = out[:top]
    return out
