"""Managed incremental LSI index — the §5.6 "real-time updating" glue.

The paper's open issue: "perform SVD-updating ... in real time for
databases that change frequently".  :class:`LSIIndexManager` packages the
pieces this library provides into the component a production system
would actually run:

* new documents are **folded in immediately** (cheap, Eq. 7), so the
  index is always queryable;
* every update consults the :mod:`repro.updating.planner` budget; once
  the folded fraction exceeds it, the accumulated raw counts are
  consolidated with a true **SVD-update** (Eq. 10) — or a full
  **recompute** when the planner says that is no cheaper;
* orthogonality drift (§4.3) is tracked and exposed, and a drift cap
  (:data:`DRIFT_CAP`) forces consolidation regardless of the size budget.

The manager owns the raw count matrix as well as the model, so a
recompute can re-derive global term weights from scratch — matching the
semantics split the paper draws between updating and recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.build import fit_lsi_from_tdm
from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.sparse.build import from_dense
from repro.sparse.ops import hstack_csc
from repro.text.tdm import TermDocumentMatrix, count_vector
from repro.text.tokenizer import tokenize
from repro.updating.fast_update import fast_update_documents
from repro.updating.folding import fold_in_documents
from repro.updating.orthogonality import drift_report
from repro.updating.planner import plan_update
from repro.updating.svd_update import update_documents

__all__ = ["IndexEvent", "LSIIndexManager"]

#: Maximum tolerated ``‖V̂ᵀV̂ − I‖₂`` before consolidation is forced.
#: The §4.3 measure reacts immediately to fold-in (projected document
#: vectors are not unit-norm), so a useful cap is O(1): 2.0 lets the
#: size budget drive consolidation in the common case while still
#: catching pathological drift.
DRIFT_CAP = 2.0

#: Consolidate with the residual-retaining (exact) SVD-update variant.
EXACT_UPDATES = True


@dataclass(frozen=True)
class IndexEvent:
    """One maintenance action taken by the manager (for observability)."""

    action: str  # "fold-in" | "fast-update" | "svd-update" | "recompute"
    n_documents: int
    pending_before: int
    doc_loss: float
    reason: str


@dataclass
class LSIIndexManager:
    """Incrementally maintained LSI index.

    Parameters
    ----------
    tdm:
        The initial raw-count matrix (vocabulary fixed thereafter).
    k:
        Number of factors maintained.
    scheme:
        Weighting scheme (passed to the fit pipeline).
    distortion_budget:
        Maximum folded fraction ``pending / n`` before consolidation
        (the planner's fold-in budget).
    ingest_method:
        How an incoming batch becomes queryable before consolidation:
        ``"fold-in"`` (Eq. 7, the paper's default — cheapest, but the
        appended vectors corrupt orthogonality) or ``"fast-update"``
        (the Vecharynski-Saad Rayleigh-Ritz projection update of
        :mod:`repro.updating.fast_update` — slightly costlier per
        batch, keeps the factors orthonormal, which is what the
        cluster's primary writer runs under sustained ingest).  Either
        way the raw counts accumulate in the pending block and
        consolidation still applies the exact SVD-update (or a
        recompute) to the pristine base model.
    fast_update_rank:
        Residual sketch rank ``l`` for ``ingest_method="fast-update"``.
    """

    tdm: TermDocumentMatrix
    k: int
    scheme: object = None
    distortion_budget: float = 0.1
    seed: int = 0
    ingest_method: str = "fold-in"
    fast_update_rank: int = 8

    model: LSIModel = field(init=False)
    _base_model: LSIModel = field(init=False)
    _pending_counts: list[np.ndarray] = field(init=False, default_factory=list)
    _pending_ids: list[str] = field(init=False, default_factory=list)

    def __post_init__(self):
        self._base_model = fit_lsi_from_tdm(
            self.tdm, self.k, scheme=self.scheme, seed=self.seed
        )
        self.model = self._base_model

    # ------------------------------------------------------------------ #
    @classmethod
    def restore(
        cls,
        *,
        tdm: TermDocumentMatrix,
        k: int,
        model: LSIModel,
        base_model: LSIModel,
        pending_counts: Sequence[np.ndarray] = (),
        pending_ids: Sequence[str] = (),
        scheme: object = None,
        distortion_budget: float = 0.1,
        seed: int = 0,
        ingest_method: str = "fold-in",
        fast_update_rank: int = 8,
    ) -> "LSIIndexManager":
        """Rebuild a manager from previously captured state — no refit.

        The durability layer (:mod:`repro.store`) checkpoints a manager's
        full state (consolidated base model, folded serving model, raw
        counts, pending fold-in block) and recovers by calling this and
        then replaying the write-ahead log.  Because every maintenance
        action is a deterministic function of that state, a restored
        manager replaying the same events reproduces bit-identical
        ``U, s, V`` (asserted in the test suite) — which is exactly the
        property crash recovery relies on.
        """
        manager = object.__new__(cls)
        manager.tdm = tdm
        manager.k = k
        manager.scheme = scheme
        manager.distortion_budget = distortion_budget
        manager.seed = seed
        manager.ingest_method = ingest_method
        manager.fast_update_rank = fast_update_rank
        manager._base_model = base_model
        manager.model = model
        manager._pending_counts = [
            np.asarray(block, dtype=np.float64) for block in pending_counts
        ]
        manager._pending_ids = list(pending_ids)
        total = sum(b.shape[1] for b in manager._pending_counts)
        if total != len(manager._pending_ids):
            raise ShapeError(
                f"pending block has {total} columns for "
                f"{len(manager._pending_ids)} pending ids"
            )
        return manager

    # ------------------------------------------------------------------ #
    @property
    def n_documents(self) -> int:
        """Documents visible to queries (consolidated + folded)."""
        return self.model.n_documents

    @property
    def pending(self) -> int:
        """Documents currently represented only by fold-in."""
        return len(self._pending_ids)

    def drift(self) -> float:
        """Current §4.3 document-side orthogonality loss."""
        return drift_report(self.model).doc_loss

    # ------------------------------------------------------------------ #
    def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> IndexEvent:
        """Add documents; returns the maintenance event that resulted."""
        return self.add_counts(*self.count_texts(texts, doc_ids))

    def count_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> tuple[np.ndarray, list[str]]:
        """``texts`` as raw count columns against the current vocabulary,
        with their ids — minted ``D<n>`` after every document held
        (served or pending) when ``doc_ids`` is ``None``.

        Given ids must be a list or tuple of non-empty strings, one per
        text, distinct and not already held; anything else raises
        :class:`ShapeError` here, before a store logs the batch.
        """
        if not texts:
            raise ShapeError("add_texts needs at least one document")
        if doc_ids is None:
            start = self.n_documents + self.pending + 1
            doc_ids = [f"D{start + i}" for i in range(len(texts))]
        elif not isinstance(doc_ids, (list, tuple)) or not all(
            isinstance(d, str) and d for d in doc_ids
        ):
            raise ShapeError("doc_ids must be a list of non-empty strings")
        elif len(doc_ids) != len(texts):
            raise ShapeError("doc_ids length mismatch")
        elif len(set(doc_ids)) != len(doc_ids):
            raise ShapeError("doc_ids repeat within the batch")
        elif held := set(self.model.doc_ids).intersection(doc_ids):
            raise ShapeError(f"doc_ids already held: {sorted(held)}")
        counts = np.stack(
            [count_vector(tokenize(t), self.model.vocabulary) for t in texts],
            axis=1,
        )
        return counts, list(doc_ids)

    def add_counts(
        self, counts: np.ndarray, doc_ids: Sequence[str]
    ) -> IndexEvent:
        """Add documents given as raw count columns."""
        counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
        if counts.shape[0] != self.model.n_terms:
            raise ShapeError(
                f"count block has {counts.shape[0]} rows for "
                f"m={self.model.n_terms}"
            )
        pending_before = self.pending
        # Ingest first: the index must answer queries immediately.  The
        # paper's fold-in is the default; the fast-update kernel is the
        # writer-side alternative that keeps the factors orthonormal.
        if self.ingest_method == "fast-update":
            self.model = fast_update_documents(
                self.model, counts, list(doc_ids),
                rank=self.fast_update_rank, seed=self.seed,
            )
            ingest_action = "fast-update"
        else:
            self.model = fold_in_documents(self.model, counts, list(doc_ids))
            ingest_action = "fold-in"
        self._pending_counts.append(counts)
        self._pending_ids.extend(doc_ids)

        plan = plan_update(
            m=self.model.n_terms,
            n=self.tdm.n_documents,
            k=self.k,
            p=self.pending,
            nnz_existing=self.tdm.matrix.nnz,
            distortion_budget=self.distortion_budget,
        )
        doc_loss = self.drift()
        if plan.method == "fold-in" and doc_loss <= DRIFT_CAP:
            registry.inc(f"manager.events.{ingest_action}")
            return IndexEvent(
                ingest_action, len(doc_ids), pending_before, doc_loss,
                plan.reason,
            )
        reason = (
            plan.reason
            if doc_loss <= DRIFT_CAP
            else f"drift {doc_loss:.3f} exceeded cap {DRIFT_CAP}"
        )
        return self._consolidate(plan.method, reason, len(doc_ids))

    # ------------------------------------------------------------------ #
    def _pending_block(self) -> np.ndarray:
        return np.hstack(self._pending_counts)

    def _absorb_pending_into_tdm(self) -> None:
        block = from_dense(self._pending_block()).to_csc()
        self.tdm = TermDocumentMatrix(
            hstack_csc([self.tdm.matrix, block]),
            self.tdm.vocabulary,
            list(self.tdm.doc_ids) + list(self._pending_ids),
        )
        self._pending_counts.clear()
        self._pending_ids.clear()

    def _consolidate(self, method: str, reason: str, batch: int) -> IndexEvent:
        pending_before = self.pending
        with span(
            "lsi.manager.consolidate", method=method, pending=pending_before
        ):
            if method in ("recompute", "fold-in"):
                # fold-in only reaches here via the drift cap: recompute then.
                self._absorb_pending_into_tdm()
                self._base_model = fit_lsi_from_tdm(
                    self.tdm, self.k, scheme=self.scheme, seed=self.seed
                )
                action = "recompute"
            else:
                # SVD-update the pristine base model with the whole pending
                # block — no refit of the existing collection needed.
                self._base_model = update_documents(
                    self._base_model,
                    self._pending_block(),
                    list(self._pending_ids),
                    exact=EXACT_UPDATES,
                )
                self._absorb_pending_into_tdm()
                action = "svd-update"
            self.model = self._base_model
            registry.inc(f"manager.events.{action}")
            return IndexEvent(
                action, batch, pending_before, self.drift(), reason
            )
