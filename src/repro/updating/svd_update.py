"""SVD-updating (paper §4.2): exact small-SVD updates of the rank-k model.

All three phases share one pattern: express the updated matrix in the
bases ``U_k``/``V_k`` (suitably extended with identity blocks), compute
the SVD of a *small dense* core, and rotate the old singular vectors by
the core's singular vectors.  Every core — and every residual basis of
the ``exact=True`` variants — is one :func:`~repro.linalg.svd.dense_svd`
call (LAPACK).

Updating documents (Eq. 10, B = (A_k | D)):
    ``F = (Σ_k | U_kᵀ D)``, SVD(F) = U_F Σ_F V_Fᵀ, then
    ``U_B = U_k U_F``, ``V_B = diag(V_k, I_p) V_F``, ``Σ_B = Σ_F``.

Updating terms (Eq. 11, C = [A_k ; T]):
    ``H = [Σ_k ; T V_k]``, SVD(H) = U_H Σ_H V_Hᵀ, then
    ``U_C = diag(U_k, I_q) U_H``, ``V_C = V_k V_H``, ``Σ_C = Σ_H``.

Correcting term weights (Eq. 12, W = A_k + Y_j Z_jᵀ):
    ``Q = Σ_k + (U_kᵀ Y_j)(Z_jᵀ V_k)``, SVD(Q) = U_Q Σ_Q V_Qᵀ, then
    ``U_W = U_k U_Q``, ``V_W = V_k V_Q``.

Unlike folding-in, every phase yields exactly orthonormal factors (the
rotations are orthonormal by construction), so ``‖UᵀU − I‖₂`` stays at
rounding level — the §4.3 distinction the orthogonality benches measure.

Exactness caveat (faithful to the paper)
----------------------------------------
The printed identities express the update in the *retained* bases only:
``F = (Σ_k | U_kᵀD)`` discards the component of ``D`` orthogonal to
``span(U_k)``, so the produced triplets are those of the projection of
``B`` — a (usually excellent) approximation whose singular values never
exceed the true ones.  Each update function also offers ``exact=True``,
which augments the basis with an orthonormal factor of the residual
``(I − U_kU_kᵀ)D`` (the later Zha-Simon construction) and recovers the
true rank-k SVD of ``B`` — implemented here as the natural extension the
paper's §4.3 "future research" paragraph points toward.

The correction-step identity is likewise exact when the update directions
lie in the retained subspaces (e.g. re-weighting rows of ``A_k`` itself);
for general ``Y``/``Z`` it is the paper's rank-k approximation, with the
same ``exact=True`` escape hatch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.linalg.svd import dense_svd
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.updating.folding import _weight_columns
from repro.weighting.local import NEEDS_COL_MAX, local_weight

__all__ = ["update_documents", "update_terms", "update_weights"]

#: Residual columns with norm below this (relative to the block) are
#: treated as lying inside the retained subspace.
_RESIDUAL_TOL = 1e-10


def _range_basis(X: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of ``range(X)`` with coefficients: ``X = Q R``.

    Rank-revealing (components below ``_RESIDUAL_TOL · scale`` are
    dropped) and shape-agnostic — unlike plain QR it handles wide
    residual blocks, which arise when more items are appended than the
    space has dimensions.
    """
    if X.size == 0 or X.shape[1] == 0:
        return np.zeros((X.shape[0], 0)), np.zeros((0, X.shape[1]))
    U, s, V = dense_svd(X)
    keep = s > _RESIDUAL_TOL * max(scale, 1.0)
    Q = U[:, keep]
    R = s[keep, None] * V[:, keep].T
    return Q, R


def update_documents(
    model: LSIModel,
    counts: np.ndarray,
    doc_ids: Sequence[str],
    *,
    exact: bool = False,
) -> LSIModel:
    """SVD-update with ``p`` new document columns (raw counts).

    Implements Eq. 10: the k-largest singular triplets of
    ``B = (A_k | D)`` where ``D`` is the weighted new-document block.
    With ``exact=True`` the residual of ``D`` outside ``span(U_k)`` is
    retained (see module docstring), making the result the true rank-k
    SVD of ``B``.
    """
    with span("lsi.update.documents", exact=exact) as sp:
        D = _weight_columns(model, counts)  # (m, p) weighted
        p = D.shape[1]
        sp.set_attr("p", p)
        if len(doc_ids) != p:
            raise ShapeError(f"{len(doc_ids)} ids for {p} documents")
        registry.inc("updating.updated_documents", p)
        k = model.k
        Dhat = model.U.T @ D  # (k, p)
        if exact:
            resid = D - model.U @ Dhat
            Qr, Rr = _range_basis(resid, np.sqrt(np.sum(D * D)))
            r = Qr.shape[1]
            # K = [[Σ_k, D̂], [0, R_r]], (k+r) × (k+p).
            K = np.zeros((k + r, k + p))
            K[:k, :k] = np.diag(model.s)
            K[:k, k:] = Dhat
            K[k:, k:] = Rr
            UK, sK, VK = dense_svd(K)
            UK, sK, VK = UK[:, :k], sK[:k], VK[:, :k]
            U_new = model.U @ UK[:k, :] + Qr @ UK[k:, :]
            V_new = np.vstack([model.V @ VK[:k, :], VK[k:, :]])
            return LSIModel(
                U=U_new,
                s=sK,
                V=V_new,
                vocabulary=model.vocabulary,
                doc_ids=model.doc_ids + list(doc_ids),
                scheme=model.scheme,
                global_weights=model.global_weights,
                provenance="svd-update",
            )
        # F = (Σ_k | U_kᵀ D), k × (k+p) — the paper's printed construction.
        F = np.hstack([np.diag(model.s), Dhat])
        UF, sF, VF = dense_svd(F)  # rank ≤ k, so exactly k triplets
        UF, sF, VF = UF[:, :k], sF[:k], VF[:, :k]
        U_new = model.U @ UF
        # V_B = diag(V_k, I_p) V_F: top n rows rotate V_k, bottom p rows are
        # V_F's tail block verbatim.
        V_new = np.vstack([model.V @ VF[:k, :], VF[k:, :]])
        return LSIModel(
            U=U_new,
            s=sF,
            V=V_new,
            vocabulary=model.vocabulary,
            doc_ids=model.doc_ids + list(doc_ids),
            scheme=model.scheme,
            global_weights=model.global_weights,
            provenance="svd-update",
        )


def update_terms(
    model: LSIModel,
    counts: np.ndarray,
    terms: Sequence[str],
    global_weights: np.ndarray | None = None,
    *,
    exact: bool = False,
) -> LSIModel:
    """SVD-update with ``q`` new term rows (raw counts over n documents).

    Implements Eq. 11: the k-largest singular triplets of
    ``C = [A_k ; T]``.  With ``exact=True`` the residual of ``Tᵀ``
    outside ``span(V_k)`` is retained, making the result the true rank-k
    SVD of ``C``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim == 1:
        counts = counts[None, :]
    q, n = counts.shape
    if n != model.n_documents:
        raise ShapeError(
            f"term block has {n} columns for n={model.n_documents}"
        )
    if len(terms) != q:
        raise ShapeError(f"{len(terms)} names for {q} terms")
    with span("lsi.update.terms", q=q, exact=exact):
        registry.inc("updating.updated_terms", q)
        if model.scheme.local in NEEDS_COL_MAX:
            cmax = np.maximum(counts.max(axis=1, keepdims=True), 1.0)
            T = local_weight(
                model.scheme.local, counts, np.broadcast_to(cmax, counts.shape)
            )
        else:
            T = local_weight(model.scheme.local, counts)
        if global_weights is not None:
            gw = np.asarray(global_weights, dtype=np.float64).ravel()
            if gw.size != q:
                raise ShapeError("global_weights must have one entry per term")
            T = T * gw[:, None]
        else:
            gw = np.ones(q)
        k = model.k
        That = T @ model.V  # (q, k)
        if exact:
            resid = T.T - model.V @ That.T  # (n, q)
            Qr, Rr = _range_basis(resid, np.sqrt(np.sum(T * T)))
            r = Qr.shape[1]
            # K = [[Σ_k, 0], [T V_k, R_rᵀ]], (k+q) × (k+r).
            K = np.zeros((k + q, k + r))
            K[:k, :k] = np.diag(model.s)
            K[k:, :k] = That
            K[k:, k:] = Rr.T
            UK, sK, VK = dense_svd(K)
            UK, sK, VK = UK[:, :k], sK[:k], VK[:, :k]
            U_new = np.vstack([model.U @ UK[:k, :], UK[k:, :]])
            V_new = model.V @ VK[:k, :] + Qr @ VK[k:, :]
        else:
            # H = [Σ_k ; T V_k], (k+q) × k — the paper's printed construction.
            H = np.vstack([np.diag(model.s), That])
            UH, sH, VH = dense_svd(H)
            UH, sK, VH = UH[:, :k], sH[:k], VH[:, :k]
            U_new = np.vstack([model.U @ UH[:k, :], UH[k:, :]])
            V_new = model.V @ VH
        vocab = model.vocabulary.copy()
        for t in terms:
            if t in vocab:
                raise ShapeError(f"term {t!r} already present")
            vocab.add(t)
        return LSIModel(
            U=U_new,
            s=sK,
            V=V_new,
            vocabulary=vocab.freeze(),
            doc_ids=list(model.doc_ids),
            scheme=model.scheme,
            global_weights=np.concatenate([model.global_weights, gw]),
            provenance="svd-update",
        )


def update_weights(
    model: LSIModel,
    Y: np.ndarray,
    Z: np.ndarray,
    *,
    exact: bool = False,
) -> LSIModel:
    """SVD-update for changed term weights (Eq. 12): ``W = A_k + Y Zᵀ``.

    ``Y (m, j)`` selects the re-weighted term rows, ``Z (n, j)`` holds the
    old-to-new weight differences (see
    :func:`repro.weighting.correction.weight_correction_blocks`).  With
    ``exact=True`` the components of ``Y`` and ``Z`` outside the retained
    subspaces are kept via residual QR factors, giving the true rank-k SVD
    of ``W``.
    """
    Y = np.asarray(Y, dtype=np.float64)
    Z = np.asarray(Z, dtype=np.float64)
    if Y.ndim != 2 or Y.shape[0] != model.n_terms:
        raise ShapeError(f"Y must be (m, j), got {Y.shape}")
    if Z.ndim != 2 or Z.shape[0] != model.n_documents:
        raise ShapeError(f"Z must be (n, j), got {Z.shape}")
    if Y.shape[1] != Z.shape[1]:
        raise ShapeError(
            f"Y and Z must agree on j: {Y.shape[1]} vs {Z.shape[1]}"
        )
    with span("lsi.update.weights", j=Y.shape[1], exact=exact):
        registry.inc("updating.weight_corrections", Y.shape[1])
        k = model.k
        Yhat = model.U.T @ Y  # (k, j)
        Zhat = model.V.T @ Z  # (k, j)
        if exact and Y.shape[1] > 0:
            Qy, Ry = _range_basis(Y - model.U @ Yhat, np.sqrt(np.sum(Y * Y)))
            Qz, Rz = _range_basis(Z - model.V @ Zhat, np.sqrt(np.sum(Z * Z)))
            ry, rz = Qy.shape[1], Qz.shape[1]
            # W = [U_k Q_y] K [V_k Q_z]ᵀ with the 2×2 block core below.
            K = np.zeros((k + ry, k + rz))
            K[:k, :k] = np.diag(model.s) + Yhat @ Zhat.T
            K[:k, k:] = Yhat @ Rz.T
            K[k:, :k] = Ry @ Zhat.T
            K[k:, k:] = Ry @ Rz.T
            UK, sK, VK = dense_svd(K)
            UK, sK, VK = UK[:, :k], sK[:k], VK[:, :k]
            return LSIModel(
                U=model.U @ UK[:k, :] + Qy @ UK[k:, :],
                s=sK,
                V=model.V @ VK[:k, :] + Qz @ VK[k:, :],
                vocabulary=model.vocabulary,
                doc_ids=list(model.doc_ids),
                scheme=model.scheme,
                global_weights=model.global_weights,
                provenance="svd-update",
            )
        Q = np.diag(model.s) + Yhat @ Zhat.T
        UQ, sQ, VQ = dense_svd(Q)
        UQ, sQ, VQ = UQ[:, :k], sQ[:k], VQ[:, :k]
        return LSIModel(
            U=model.U @ UQ,
            s=sQ,
            V=model.V @ VQ,
            vocabulary=model.vocabulary,
            doc_ids=list(model.doc_ids),
            scheme=model.scheme,
            global_weights=model.global_weights,
            provenance="svd-update",
        )
