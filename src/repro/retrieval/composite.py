"""Composite queries: terms, documents, or combinations (§5.4).

"The fact that both terms and documents are represented in the same
reduced-dimension space adds another dimension of flexibility to the
LSI retrieval model.  Queries can be either terms (as in most
information retrieval applications), documents or combinations of the
two (as in relevance feedback)."

:class:`CompositeQuery` builds a k-space query vector from any mixture
of free text and example documents (by id or index), each with its own
weight — the one query-construction surface behind
plain search, query-by-example, and the more-like-this-but-about-X
idiom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import ShapeError

__all__ = ["CompositeQuery"]


@dataclass
class CompositeQuery:
    """Accumulates weighted query components against one model.

    Components are combined as a weighted sum of k-space vectors — the
    same linear-combination semantics Eq. 6 gives a multi-word query,
    extended to whole documents.
    """

    model: LSIModel
    _parts: list[tuple[np.ndarray, float]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def add_text(self, text: str, weight: float = 1.0) -> "CompositeQuery":
        """Add free text (tokenized, weighted, projected by Eq. 6)."""
        self._parts.append((project_query(self.model, text), float(weight)))
        return self

    def add_document(self, doc, weight: float = 1.0) -> "CompositeQuery":
        """Add an indexed document by id (str) or index (int) —
        query-by-example."""
        j = self.model.doc_index(doc) if isinstance(doc, str) else int(doc)
        if not 0 <= j < self.model.n_documents:
            raise ShapeError(f"document index {j} out of range")
        self._parts.append((self.model.V[j].copy(), float(weight)))
        return self

    def vector(self) -> np.ndarray:
        """The combined k-space query vector (weighted sum)."""
        if not self._parts:
            raise ShapeError("composite query has no components")
        out = np.zeros(self.model.k)
        for vec, w in self._parts:
            out += w * vec
        return out

    def search(
        self,
        *,
        top: int | None = None,
        threshold: float | None = None,
        exclude_examples: bool = True,
    ) -> list[tuple[str, float]]:
        """Rank documents for the combined query.

        ``exclude_examples`` drops documents that were added as positive
        examples (query-by-example rarely wants the example back).
        """
        from repro.core.similarity import rank_documents

        ranked = rank_documents(self.model, self.vector())
        if exclude_examples:
            example_rows = {
                tuple(np.round(vec, 12).tolist())
                for vec, w in self._parts
                if w > 0
            }
            if example_rows:
                keep = []
                for doc_id, cos in ranked:
                    row = self.model.V[self.model.doc_index(doc_id)]
                    if tuple(np.round(row, 12).tolist()) in example_rows:
                        continue
                    keep.append((doc_id, cos))
                ranked = keep
        if threshold is not None:
            ranked = [(d, c) for d, c in ranked if c >= threshold]
        if top is not None:
            ranked = ranked[:top]
        return ranked
