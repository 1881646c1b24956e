"""LRU cache of projected query vectors (Eq. 6 results).

Production query streams repeat: the same few hundred queries account
for most traffic.  Projection is cheap relative to scoring but not free
— an (m,)·(m, k) GEMV plus the weighting transform — and it is pure:
the projected vector depends only on the model and the query's term
counts.  The cache key is therefore the *normalized* token counts (the
canonical sparse form of the count vector), so ``"blood age"``,
``"age blood"`` and ``["age", "blood"]`` all hit the same entry, and
out-of-vocabulary noise that drops out of the counts cannot split it.

The cache belongs to whoever owns a model reference (the retrieval
engine, an epoch snapshot) and is reached through
:meth:`QueryVectorCache.project`, which drops every entry when it is
handed a different model than the one its entries were projected with.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_counts, query_counts
from repro.obs.metrics import registry

__all__ = ["QueryVectorCache"]


class QueryVectorCache:
    """Bounded LRU mapping normalized query counts → projected vectors.

    ``maxsize <= 0`` disables caching (every lookup misses and nothing
    is stored), which keeps the call sites branch-free.
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._model: LSIModel | None = None

    def project(self, model: LSIModel, query) -> np.ndarray:
        """Eq. 6 for one query (text or token sequence), memoized.

        Normalized token counts key the LRU; a miss runs the weighting
        transform + ``U_k Σ_k⁻¹`` projection and stores the result.
        """
        if model is not self._model:
            self.clear()
            self._model = model
        counts = query_counts(model, query)
        key = self.key_from_counts(counts)
        qhat = self.get(key)
        if qhat is None:
            qhat = project_counts(model, counts)
            self.put(key, qhat)
        return qhat

    @staticmethod
    def key_from_counts(counts: np.ndarray) -> tuple:
        """Canonical hashable form of a term-count vector.

        The sparse pattern (nonzero ids + their counts) plus the vector
        length, so models with different vocabularies cannot collide
        through a shared cache.  Indices are cast to ``int64`` before
        hashing: ``np.flatnonzero`` returns platform-``intp`` (32-bit on
        some platforms), and ``tobytes()`` of differently sized ints
        would key the same query differently across platforms.
        """
        c = np.asarray(counts)
        nz = np.flatnonzero(c).astype(np.int64, copy=False)
        return (c.size, nz.tobytes(), np.asarray(c[nz], dtype=np.float64).tobytes())

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> np.ndarray | None:
        """Cached projection for ``key``, or None (counts hits/misses)."""
        hit = self._entries.get(key)
        if hit is None:
            registry.inc("serving.query_cache_misses")
            return None
        self._entries.move_to_end(key)
        registry.inc("serving.query_cache_hits")
        return hit.copy()  # callers may mutate their query vector

    def put(self, key: tuple, vector: np.ndarray) -> None:
        """Store a projected vector (evicting the LRU entry when full)."""
        if self.maxsize <= 0:
            return
        self._entries[key] = np.array(vector, dtype=np.float64, copy=True)
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        self._publish_size()

    def clear(self) -> None:
        """Drop every entry (model changed, or tests)."""
        self._entries.clear()
        self._publish_size()

    def _publish_size(self) -> None:
        """Expose occupancy as gauges (hit rate derives from the
        ``serving.query_cache_hits``/``_misses`` counters).

        Last-writer-wins across caches, which is the intended reading: a
        serving process has one live cache (per engine or per epoch) and
        ``/stats`` / ``repro stats`` report its current occupancy.
        """
        registry.set_gauge("serving.query_cache_size", len(self._entries))
        registry.set_gauge("serving.query_cache_capacity", self.maxsize)
