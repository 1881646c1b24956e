"""The fitted LSI model: ``A_k = U_k Σ_k V_kᵀ`` plus its labellings.

Table 1 of the paper maps the SVD components to their LSI interpretation:
``U`` holds term vectors, ``V`` document vectors, ``Σ`` the singular
values, and ``k`` the number of factors.  :class:`LSIModel` bundles those
with the vocabulary (row labels), document ids (column labels) and the
weighting configuration — the latter because queries and folded-in
documents must be weighted identically to the training documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ModelStateError, ShapeError
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import WeightingScheme

__all__ = ["LSIModel"]


@dataclass
class LSIModel:
    """A truncated-SVD semantic space.

    Treat an instance as immutable once it has been scored: the serving
    layer memoizes the norms and unit rows of ``V_k Σ_k`` and ``U_k Σ_k``
    on it (:mod:`repro.serving.index`), so an in-place edit of a factor
    after that is not seen.  Every update path returns a new model
    instead.

    Attributes
    ----------
    U:
        ``(m, k)`` term vectors.
    s:
        ``(k,)`` singular values, descending.
    V:
        ``(n, k)`` document vectors.
    vocabulary:
        Labels of the ``m`` term rows.
    doc_ids:
        Labels of the ``n`` document columns.
    scheme:
        The weighting scheme applied before decomposition.
    global_weights:
        ``(m,)`` global term weights ``G(i)`` — applied to query counts.
    provenance:
        How this model was produced: ``"svd"`` (direct decomposition),
        ``"fold-in"``, ``"svd-update"`` or ``"recompute"``.  Fold-in
        produces models whose ``U``/``V`` are no longer exactly orthonormal
        (§4.3); consumers that need true singular vectors can check this.
    """

    U: np.ndarray
    s: np.ndarray
    V: np.ndarray
    vocabulary: Vocabulary
    doc_ids: list[str]
    scheme: WeightingScheme = field(default_factory=WeightingScheme)
    global_weights: np.ndarray | None = None
    provenance: str = "svd"

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=np.float64)
        self.s = np.asarray(self.s, dtype=np.float64).ravel()
        self.V = np.asarray(self.V, dtype=np.float64)
        k = self.s.size
        if self.U.ndim != 2 or self.U.shape[1] != k:
            raise ShapeError(f"U must be (m, {k}), got {self.U.shape}")
        if self.V.ndim != 2 or self.V.shape[1] != k:
            raise ShapeError(f"V must be (n, {k}), got {self.V.shape}")
        if len(self.vocabulary) != self.U.shape[0]:
            raise ShapeError(
                f"vocabulary has {len(self.vocabulary)} terms for "
                f"{self.U.shape[0]} term vectors"
            )
        if len(self.doc_ids) != self.V.shape[0]:
            raise ShapeError(
                f"{len(self.doc_ids)} doc ids for {self.V.shape[0]} "
                "document vectors"
            )
        if self.global_weights is None:
            self.global_weights = np.ones(self.U.shape[0])
        else:
            self.global_weights = np.asarray(
                self.global_weights, dtype=np.float64
            ).ravel()
            if self.global_weights.size != self.U.shape[0]:
                raise ShapeError("global_weights length must equal m")

    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        """Number of retained factors."""
        return int(self.s.size)

    @property
    def n_terms(self) -> int:
        """Vocabulary size ``m``."""
        return self.U.shape[0]

    @property
    def n_documents(self) -> int:
        """Document count ``n``."""
        return self.V.shape[0]

    # ------------------------------------------------------------------ #
    # coordinate access (the Figure 4 plotting convention)
    # ------------------------------------------------------------------ #
    def term_coordinates(self) -> np.ndarray:
        """``U_k Σ_k`` — term positions in factor space (Fig. 4 axes)."""
        return self.U * self.s

    def doc_coordinates(self) -> np.ndarray:
        """``V_k Σ_k`` — document positions in factor space."""
        return self.V * self.s

    def doc_index(self, doc_id: str) -> int:
        """Position of ``doc_id`` among the document vectors."""
        try:
            return self.doc_ids.index(doc_id)
        except ValueError:
            raise ModelStateError(f"unknown document id {doc_id!r}") from None

    # ------------------------------------------------------------------ #
    def truncated(self, k: int) -> "LSIModel":
        """A model using only the first ``k`` factors (for k-sweeps)."""
        if not 1 <= k <= self.k:
            raise ShapeError(f"cannot truncate k={self.k} model to {k}")
        return replace(
            self,
            U=self.U[:, :k].copy(),
            s=self.s[:k].copy(),
            V=self.V[:, :k].copy(),
        )

    def with_documents(
        self, V_new: np.ndarray, doc_ids_new: list[str], *, provenance: str
    ) -> "LSIModel":
        """Model with additional document vectors appended (fold-in path)."""
        V_new = np.asarray(V_new, dtype=np.float64)
        if V_new.ndim != 2 or V_new.shape[1] != self.k:
            raise ShapeError(
                f"appended document vectors must be (p, {self.k})"
            )
        if V_new.shape[0] != len(doc_ids_new):
            raise ShapeError("doc_ids_new length mismatch")
        return replace(
            self,
            V=np.vstack([self.V, V_new]),
            doc_ids=self.doc_ids + list(doc_ids_new),
            provenance=provenance,
        )

    def with_terms(
        self,
        U_new: np.ndarray,
        terms_new: list[str],
        global_weights_new: np.ndarray | None = None,
        *,
        provenance: str,
    ) -> "LSIModel":
        """Model with additional term vectors appended (fold-in path)."""
        U_new = np.asarray(U_new, dtype=np.float64)
        if U_new.ndim != 2 or U_new.shape[1] != self.k:
            raise ShapeError(f"appended term vectors must be (q, {self.k})")
        if U_new.shape[0] != len(terms_new):
            raise ShapeError("terms_new length mismatch")
        vocab = self.vocabulary.copy()
        for t in terms_new:
            if t in vocab:
                raise ShapeError(f"term {t!r} already present")
            vocab.add(t)
        if global_weights_new is None:
            global_weights_new = np.ones(U_new.shape[0])
        return replace(
            self,
            U=np.vstack([self.U, U_new]),
            vocabulary=vocab.freeze(),
            global_weights=np.concatenate(
                [self.global_weights, np.asarray(global_weights_new, float)]
            ),
            provenance=provenance,
        )

    def __repr__(self) -> str:
        return (
            f"LSIModel(m={self.n_terms}, n={self.n_documents}, k={self.k}, "
            f"scheme={self.scheme.name}, provenance={self.provenance!r})"
        )
