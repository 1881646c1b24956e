"""Cached document-side serving state, built once per model.

Every query against an :class:`~repro.core.model.LSIModel` needs the
scaled document coordinates ``V_k Σ_k``, their row norms, and the mask
of zero-norm rows.  The historical path recomputed all three per query —
an O(nk) multiply and O(nk) norm pass before the GEMV even starts.
:class:`DocumentIndex` materializes them once (C-contiguous, so the GEMM
streams rows) and the module-level cache hands the same index back for
repeated queries against the same model.

Invalidation contract
---------------------
The cache is keyed by model *identity*; models are treated as immutable
once built.  Any code that supersedes a model — folding in documents or
terms, SVD-updating, or the index manager consolidating — must call
:func:`invalidate_model` on the **source** model.  The updating layer
(:mod:`repro.updating.folding`, :mod:`repro.updating.svd_update`,
:mod:`repro.updating.manager`, :mod:`repro.parallel.chunked`) does this
for you.  Invalidation

* evicts the superseded model's cached index, and
* flips :meth:`DocumentIndex.is_stale` on every outstanding handle, so
  a serving loop that pinned an index cannot keep answering from
  pre-update state unnoticed: :meth:`DocumentIndex.scores` raises
  :class:`~repro.errors.ModelStateError` until the holder re-fetches
  via :func:`get_document_index`.

Re-fetching after invalidation is always safe — it just rebuilds the
cached arrays from the model actually being queried.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ModelStateError, ShapeError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.serving.kernel import cosine_scores, row_norms
from repro.serving.topk import ranked_pairs

__all__ = [
    "DocumentIndex",
    "get_document_index",
    "invalidate_model",
    "cache_info",
    "clear_index_cache",
]

#: Models whose cached indexes are retained concurrently.  Each entry
#: holds the model's coordinate matrix (n × k float64), so the cap
#: bounds serving memory at roughly ``capacity`` extra models.
_CACHE_CAPACITY = 8

_lock = threading.Lock()
_cache: OrderedDict[tuple[int, str], "DocumentIndex"] = OrderedDict()
#: id(model) → invalidation epoch.  Entries are created lazily on the
#: first invalidation and removed by a finalizer when the model dies,
#: so a recycled id can never inherit a stale epoch.
_epochs: dict[int, int] = {}


def _current_epoch(model: LSIModel) -> int:
    return _epochs.get(id(model), 0)


class DocumentIndex:
    """Precomputed document-side scoring state for one model.

    Attributes
    ----------
    coords:
        ``(n, k)`` C-contiguous comparison-space coordinates
        (``V_k Σ_k`` in scaled mode, ``V_k`` in factors mode).
    norms:
        ``(n,)`` row norms of ``coords``.
    zero_mask:
        ``(n,)`` boolean mask of zero-norm rows (they score 0 always).
    """

    def __init__(self, model: LSIModel, *, mode: str = "scaled"):
        if mode not in ("scaled", "factors"):
            raise ValueError(f"unknown similarity mode {mode!r}")
        # A strong reference: while any handle or cache entry lives, the
        # model's id cannot be recycled, which keeps identity keys sound.
        self.model = model
        self.mode = mode
        coords = model.V * model.s if mode == "scaled" else model.V
        self.coords = np.ascontiguousarray(coords, dtype=np.float64)
        self.norms = row_norms(self.coords)
        self.zero_mask = self.norms == 0.0
        self._epoch = _current_epoch(model)
        registry.inc("serving.index_builds")

    # ------------------------------------------------------------------ #
    @property
    def n_documents(self) -> int:
        """Documents this index scores."""
        return self.coords.shape[0]

    @property
    def k(self) -> int:
        """Dimensionality of the comparison space."""
        return self.coords.shape[1]

    def is_stale(self) -> bool:
        """True once :func:`invalidate_model` ran on the source model."""
        return self._epoch != _current_epoch(self.model)

    def ensure_fresh(self) -> None:
        """Raise if this handle predates an invalidation of its model."""
        if self.is_stale():
            raise ModelStateError(
                "serving index is stale: its model was superseded by a "
                "fold-in/SVD-update; re-fetch with get_document_index()"
            )

    # ------------------------------------------------------------------ #
    def prepare_queries(self, Q: np.ndarray) -> np.ndarray:
        """Validate query vectors and map them into the comparison space."""
        Q2 = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if Q2.shape[1] != self.model.k:
            raise ShapeError(
                f"queries have {Q2.shape[1]} dims for k={self.model.k}"
            )
        return Q2 * self.model.s if self.mode == "scaled" else Q2

    def scores(self, qhat: np.ndarray) -> np.ndarray:
        """Cosine of one k-space query vector with every document."""
        self.ensure_fresh()
        qhat = np.asarray(qhat, dtype=np.float64).ravel()
        registry.inc("serving.queries_served")
        Qs = self.prepare_queries(qhat)
        return cosine_scores(self.coords, Qs, norms=self.norms)[0]

    def batch_scores(self, qhats: np.ndarray) -> np.ndarray:
        """Cosine of ``(q, k)`` query vectors with every document."""
        self.ensure_fresh()
        Qs = self.prepare_queries(qhats)
        registry.inc("serving.batch_queries_served", Qs.shape[0])
        return cosine_scores(self.coords, Qs, norms=self.norms)

    def search_vector(
        self,
        qhat: np.ndarray,
        *,
        top: int | None = None,
        threshold: float | None = None,
    ) -> list[tuple[int, float]]:
        """Ranked, filtered ``(doc_index, score)`` pairs for one vector."""
        with span("lsi.search", top=top, docs=self.n_documents):
            return ranked_pairs(
                self.scores(qhat), top=top, threshold=threshold
            )

    def __repr__(self) -> str:
        return (
            f"DocumentIndex(n={self.n_documents}, k={self.k}, "
            f"mode={self.mode!r}, stale={self.is_stale()})"
        )


# --------------------------------------------------------------------- #
# the per-model cache and its invalidation hooks
# --------------------------------------------------------------------- #
def get_document_index(model: LSIModel, *, mode: str = "scaled") -> DocumentIndex:
    """The cached :class:`DocumentIndex` for ``model`` (built on miss).

    Cache hits are an O(1) dict lookup; the LRU holds at most
    ``_CACHE_CAPACITY`` models.  A hit is only served when the entry's
    model is the *same object* and has not been invalidated.
    """
    key = (id(model), mode)
    with _lock:
        entry = _cache.get(key)
        if (
            entry is not None
            and entry.model is model
            and not entry.is_stale()
        ):
            _cache.move_to_end(key)
            return entry
    index = DocumentIndex(model, mode=mode)
    with _lock:
        _cache[key] = index
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_CAPACITY:
            _cache.popitem(last=False)
    return index


def invalidate_model(model: LSIModel) -> None:
    """Mark every serving artifact derived from ``model`` stale.

    Called by the updating layer whenever ``model`` is superseded (its
    documents folded into or SVD-updated onto a successor model).  Evicts
    the cached index and bumps the model's epoch so outstanding
    :class:`DocumentIndex` handles report :meth:`~DocumentIndex.is_stale`.
    """
    mid = id(model)
    with _lock:
        fresh = mid not in _epochs
        _epochs[mid] = _epochs.get(mid, 0) + 1
        for mode in ("scaled", "factors"):
            _cache.pop((mid, mode), None)
    if fresh:
        # Drop the epoch when the model dies so a recycled id starts clean.
        weakref.finalize(model, _epochs.pop, mid, None)


def cache_info() -> dict[str, int]:
    """Observability: current cache size and capacity."""
    with _lock:
        return {"entries": len(_cache), "capacity": _CACHE_CAPACITY}


def clear_index_cache() -> None:
    """Drop every cached index (tests and memory-pressure escape hatch)."""
    with _lock:
        _cache.clear()
