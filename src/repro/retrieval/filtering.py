"""Information filtering (§5.3): standing profiles over a document stream.

"In information filtering applications, a user has a relatively stable
long-term interest or profile, and new documents are constantly received
and matched against this standing interest. ... An initial sample of
documents is analyzed using standard LSI/SVD tools.  A user's interest is
represented as one (or more) vectors in this reduced-dimension LSI space.
Each new document is matched against the vector and if it is similar
enough to the interest vector it is recommended to the user."

Profiles can be built from a query (the weak baseline) or from known
relevant documents (the method Dumais & Foltz found most effective).
Streamed documents are folded into k-space with the Eq. 7 projection —
they do not change the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import ShapeError
from repro.retrieval.feedback import mean_relevant_query
from repro.serving.kernel import cosine_scores
from repro.serving.topk import ranked_pairs
from repro.text.tdm import count_columns
from repro.updating.folding import project_documents

__all__ = ["FilteringProfile", "stream_filter"]


@dataclass
class FilteringProfile:
    """A standing interest vector in k-space."""

    model: LSIModel
    vector: np.ndarray
    name: str = "profile"

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64).ravel()
        if self.vector.size != self.model.k:
            raise ShapeError(
                f"profile vector has {self.vector.size} dims for "
                f"k={self.model.k}"
            )

    # ------------------------------------------------------------------ #
    @classmethod
    def from_query(
        cls, model: LSIModel, query: str, *, name: str = "query-profile"
    ) -> "FilteringProfile":
        """Profile = the query's own pseudo-document (the baseline)."""
        return cls(model, project_query(model, query), name=name)

    @classmethod
    def from_relevant_documents(
        cls,
        model: LSIModel,
        indices: Sequence[int],
        *,
        name: str = "relevant-docs-profile",
    ) -> "FilteringProfile":
        """Profile = mean of known relevant documents' vectors — "the most
        effective method used vectors derived from known relevant
        documents (like relevance feedback) combined with LSI matching"."""
        return cls(model, mean_relevant_query(model, indices), name=name)

    # ------------------------------------------------------------------ #
    def match(self, incoming_vectors: np.ndarray) -> np.ndarray:
        """Cosine of the profile with each incoming document vector."""
        M = np.atleast_2d(np.asarray(incoming_vectors, dtype=np.float64))
        return cosine_scores(M * self.model.s, self.vector * self.model.s)[0]


def stream_filter(
    profile: FilteringProfile,
    stream_texts: Sequence[str],
    *,
    threshold: float | None = None,
) -> list[tuple[int, float]]:
    """Match a stream of new documents against a standing profile.

    Each document is projected by Eq. 7 (never added to the model).
    Returns ``(stream_index, score)`` pairs ranked by score; with a
    threshold, only recommended documents.
    """
    model = profile.model
    counts = count_columns(stream_texts, model.vocabulary)
    scores = profile.match(project_documents(model, counts))
    return ranked_pairs(scores, threshold=threshold)
