"""LSI features for statistical classification (§5.7, Related Work).

"Hull and Yang and Chute have used LSI/SVD as the first step in
conjunction with statistical classification ...  Using the LSI-derived
dimensions effectively reduces the number of predictor variables for
classification.  Wu et al. also used LSI/SVD to reduce the training set
dimension for a neural network protein classification system."

This module implements that recipe with the simplest credible classifier
— nearest class centroid, with an optional Fisher-style per-dimension
discriminant weighting — operating either on raw term vectors (the
high-dimensional baseline) or on LSI document vectors (the reduced
predictors).  The companion bench shows the LSI features matching or
beating the raw features with an order of magnitude fewer dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import ShapeError
from repro.serving.kernel import cosine_scores

__all__ = ["CentroidClassifier", "lsi_features", "classification_accuracy"]


def lsi_features(model: LSIModel, texts: Sequence[str]) -> np.ndarray:
    """Project texts into the LSI space: ``(len(texts), k)`` features.

    Documents already in the model could use their V rows directly; this
    helper projects arbitrary (including unseen) texts via Eq. 6 so
    train/test treatment is identical.
    """
    return np.stack([project_query(model, t) * model.s for t in texts])


@dataclass
class CentroidClassifier:
    """Nearest-centroid classifier with cosine similarity.

    Attributes
    ----------
    centroids:
        ``(c, d)`` class centroids.
    classes:
        Class labels, parallel to the centroid rows.
    discriminant:
        Optional per-dimension weights (between-class variance over
        within-class variance) applied before the cosine — the
        poor-man's discriminant analysis of the Hull/Yang-Chute recipe.
    """

    centroids: np.ndarray
    classes: list
    discriminant: np.ndarray | None = None

    @classmethod
    def fit(
        cls,
        features: np.ndarray,
        labels: Sequence,
        *,
        discriminant: bool = False,
    ) -> "CentroidClassifier":
        """Fit centroids (and optional discriminant weights) to labelled
        feature rows."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ShapeError("features must be 2-D")
        labels = list(labels)
        if len(labels) != X.shape[0]:
            raise ShapeError(
                f"{len(labels)} labels for {X.shape[0]} feature rows"
            )
        classes = sorted(set(labels))
        if len(classes) < 2:
            raise ShapeError("need at least two classes")
        centroids = np.stack([
            X[[l == c for l in labels]].mean(axis=0) for c in classes
        ])
        weights = None
        if discriminant:
            overall = X.mean(axis=0)
            between = np.zeros(X.shape[1])
            within = np.zeros(X.shape[1])
            for ci, c in enumerate(classes):
                rows = X[[l == c for l in labels]]
                between += rows.shape[0] * (centroids[ci] - overall) ** 2
                within += ((rows - centroids[ci]) ** 2).sum(axis=0)
            weights = np.sqrt(between / np.maximum(within, 1e-12))
            norm = weights.max()
            if norm > 0:
                weights = weights / norm
        return cls(centroids, classes, weights)

    def predict(self, features: np.ndarray):
        """Label each feature row with its nearest-centroid class."""
        X = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if X.shape[1] != self.centroids.shape[1]:
            raise ShapeError(
                f"features have {X.shape[1]} dims, centroids "
                f"{self.centroids.shape[1]}"
            )
        C = self.centroids
        if self.discriminant is not None:
            X = X * self.discriminant
            C = C * self.discriminant
        cos = cosine_scores(C, X)
        return [self.classes[int(i)] for i in np.argmax(cos, axis=1)]


def classification_accuracy(
    classifier: CentroidClassifier,
    features: np.ndarray,
    labels: Sequence,
) -> float:
    """Fraction of correct predictions."""
    labels = list(labels)
    if not labels:
        return 0.0
    preds = classifier.predict(features)
    return sum(p == t for p, t in zip(preds, labels)) / len(labels)
