"""The LSI retrieval engine.

Both engines (LSI here, keyword in :mod:`repro.retrieval.keyword`) expose
the same surface — ``scores(query)`` and ``search(query, top=, threshold=)``
returning ``(doc_index, score)`` pairs — so the evaluation harness and the
benchmark suite treat them interchangeably.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.build import fit_lsi
from repro.core.model import LSIModel
from repro.core.similarity import cosine_similarities, ranked_documents
from repro.obs.tracing import span
from repro.serving.querycache import QueryVectorCache
from repro.text.parser import ParsingRules
from repro.weighting.schemes import WeightingScheme

__all__ = ["LSIRetrieval"]


class LSIRetrieval:
    """Retrieval through a fitted LSI model (Eq. 6 + cosine ranking).

    Queries run on the serving fast path: document norms and unit rows
    come from the model's own memo
    (:func:`~repro.serving.index.scaled_documents`), projected query
    vectors are memoized in an LRU keyed on the query's normalized token
    counts (``query_cache_size`` entries; 0
    disables), and top-z selection uses ``argpartition`` with output
    element-identical to a full stable sort.
    """

    name = "lsi"

    def __init__(
        self,
        model: LSIModel,
        *,
        mode: str = "scaled",
        query_cache_size: int = 256,
    ):
        self.model = model
        self.mode = mode
        self._query_cache = QueryVectorCache(query_cache_size)

    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        k: int,
        *,
        scheme: WeightingScheme | str | None = None,
        rules: ParsingRules | None = None,
        doc_ids: Sequence[str] | None = None,
        method: str = "auto",
        seed=0,
        mode: str = "scaled",
    ) -> "LSIRetrieval":
        model = fit_lsi(
            texts, k, scheme=scheme, rules=rules, doc_ids=doc_ids,
            method=method, seed=seed,
        )
        return cls(model, mode=mode)

    @property
    def n_documents(self) -> int:
        """Documents in the underlying model."""
        return self.model.n_documents

    # ------------------------------------------------------------------ #
    def query_vector(self, query) -> np.ndarray:
        """The query's k-space pseudo-document (Eq. 6), LRU-memoized.

        The cache key is the query's normalized token counts, so
        re-ordered or re-tokenized duplicates of a repeated query hit
        the same entry.  A model swap on this engine clears the cache.
        """
        with span("lsi.project"):
            return self._query_cache.project(self.model, query)

    def scores_for_vector(self, qhat: np.ndarray) -> np.ndarray:
        """Scores for an externally supplied k-space vector (feedback)."""
        return cosine_similarities(self.model, qhat, mode=self.mode)

    def search(
        self,
        query,
        *,
        top: int | None = None,
        threshold: float | None = None,
    ) -> list[tuple[int, float]]:
        """Ranked ``(doc_index, score)`` pairs, filtered per §3.1.

        The one exact ranking every serving tier reports
        (:func:`~repro.serving.scan.ranked_scan`): the same indices as
        the stable sort of :meth:`scores_for_vector` of the query's
        :meth:`query_vector`, tie order included, with scores within
        1e-12 of it.
        """
        with span("lsi.search", top=top, docs=self.n_documents):
            return ranked_documents(
                self.model,
                self.query_vector(query),
                top=top,
                threshold=threshold,
                mode=self.mode,
            )

    def with_k(self, k: int) -> "LSIRetrieval":
        """Engine over the same model truncated to ``k`` factors (for the
        §5.2 choosing-k sweeps — one decomposition, many k values)."""
        return LSIRetrieval(
            self.model.truncated(k),
            mode=self.mode,
            query_cache_size=self._query_cache.maxsize,
        )
