"""SVD-updating (paper §4.2): one kernel for every rank-k update.

Eq. 10, 11 and 12 each ask for the rank-k SVD of the model plus a
low-rank block, ``A_k + Y Zᵀ``.  Split each side's block against the
retained basis, ``Y = U_k Ŷ + Q_y R_y`` with ``Ŷ = U_kᵀY`` and
``Q_y R_y`` an orthonormal factor of the residual ``(I − U_kU_kᵀ)Y``
(likewise ``Z`` against ``V_k``); then::

    A_k + Y Zᵀ = [U_k Q_y] K [V_k Q_z]ᵀ,
    K = diag(Σ_k, 0) + [Ŷ; R_y][Ẑ; R_z]ᵀ        ((k + r_y) × (k + r_z))

and :func:`low_rank_update` returns the rank-k SVD of that product: one
:func:`~repro.linalg.svd.dense_svd` of the small core ``K`` (LAPACK), a
truncation to k, and one rotation per side —
``U_new = [U_k Q_y] U_K``, ``V_new = [V_k Q_z] V_K``.  A side that
appends ``p`` rows instead (new documents are new rows of ``V``, new
terms new rows of ``U``) has ``Ŷ = 0``, ``Q = [0; I_p]`` and
``R = I_p``, so its rotation stacks ``K``'s tail rows under the rotated
basis and no identity is formed.

Each equation is a choice of the two sides, and ``exact`` decides
whether a projected side keeps its residual (the paper prints the
dropped form)::

    phase               Y side        Z side
    Eq. 10  (A_k | D)   D over U_k    p new rows
    Eq. 11  [A_k ; T]   q new rows    Tᵀ over V_k
    Eq. 12  A_k + YZᵀ   Y over U_k    Z over V_k

    phase   printed core (exact=False)     exact=True core
    Eq. 10  F = (Σ_k | U_kᵀD)              [[Σ_k, U_kᵀD], [0, R]]
    Eq. 11  H = [Σ_k ; T V_k]              [[Σ_k, 0], [T V_k, Rᵀ]]
    Eq. 12  Q = Σ_k + (U_kᵀY)(ZᵀV_k)       K with both residuals

The fast document update (:mod:`repro.updating.fast_update`) is Eq. 10
with a rank-``l`` sketch of the residual standing in for ``Q_y``.

The printed identities drop the residual on every projected side, so
they produce the SVD of the projection of the updated matrix — a
(usually excellent) approximation whose singular values never exceed
the true ones.  ``exact=True`` keeps it (the later Zha–Simon
construction, which the paper's §4.3 "future research" paragraph points
toward) and yields the true rank-k SVD.  Either way the rotations are
orthonormal, so ``‖UᵀU − I‖₂`` stays at rounding level — the §4.3
distinction from folding-in that the orthogonality benches measure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.linalg.svd import dense_svd
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.updating.folding import _weight_columns, _weight_rows

__all__ = [
    "low_rank_update", "update_documents", "update_terms", "update_weights",
]

#: Residual columns with norm below this (relative to the block) are
#: treated as lying inside the retained subspace.
_RESIDUAL_TOL = 1e-10

#: One side of an update: ``(X̂, Q, R)`` for a block split against the
#: retained basis (``Q`` has no columns when the residual is dropped),
#: or ``p`` for ``p`` appended rows.
Side = int | tuple[np.ndarray, np.ndarray, np.ndarray]


def _range_basis(X: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of ``range(X)`` with coefficients: ``X = Q R``.

    Rank-revealing (components below ``_RESIDUAL_TOL · scale`` are
    dropped — rounding noise that would reintroduce retained-subspace
    directions) and shape-agnostic: unlike plain QR it handles wide
    blocks, which arise when more items are appended than the space has
    dimensions.
    """
    if X.size == 0 or X.shape[1] == 0:
        return np.zeros((X.shape[0], 0)), np.zeros((0, X.shape[1]))
    U, s, V = dense_svd(X)
    keep = s > _RESIDUAL_TOL * max(scale, 1.0)
    return U[:, keep], s[keep, None] * V[:, keep].T


def _split(
    basis: np.ndarray, X: np.ndarray, hat: np.ndarray, exact: bool
) -> Side:
    """The side ``(X̂, Q, R)`` of block ``X`` with ``X̂ = basisᵀX``; the
    residual factor only when ``exact``."""
    if not exact:
        return hat, np.zeros((basis.shape[0], 0)), np.zeros((0, X.shape[1]))
    return (hat, *_range_basis(X - basis @ hat, np.sqrt(np.sum(X * X))))


def _rotate(basis: np.ndarray, W: np.ndarray, side: Side) -> np.ndarray:
    """``[basis Q] W`` for a split side; ``[basis W_top; W_tail]`` for
    appended rows."""
    k = basis.shape[1]
    if isinstance(side, int):
        return np.vstack([basis @ W[:k], W[k:]])
    out = basis @ W[:k]
    if side[1].shape[1]:
        out = out + side[1] @ W[k:]
    return out


def low_rank_update(
    model: LSIModel, y: Side, z: Side
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(U, s, V)``: the rank-k SVD of ``[U_k Q_y] K [V_k Q_z]ᵀ``.

    ``K`` is assembled block by block (module docstring); at most one
    side may be appended rows, whose identity block is never multiplied
    out, so every block of ``K`` is the product its phase prints.
    """
    k = model.k
    ry = y if isinstance(y, int) else y[1].shape[1]
    rz = z if isinstance(z, int) else z[1].shape[1]
    K = np.zeros((k + ry, k + rz))
    K[:k, :k] = np.diag(model.s)
    if isinstance(z, int):  # Z = [0; I_p]: [Ŷ; R_y] fills the new columns
        K[:k, k:], K[k:, k:] = y[0], y[2]
    elif isinstance(y, int):  # Y = [0; I_q]: [Ẑ; R_z]ᵀ fills the new rows
        K[k:, :k], K[k:, k:] = z[0].T, z[2].T
    else:
        (Yhat, _, Ry), (Zhat, _, Rz) = y, z
        K[:k, :k] += Yhat @ Zhat.T
        K[:k, k:] = Yhat @ Rz.T
        K[k:, :k] = Ry @ Zhat.T
        K[k:, k:] = Ry @ Rz.T
    UK, sK, VK = dense_svd(K)
    UK, sK, VK = UK[:, :k], sK[:k], VK[:, :k]
    return _rotate(model.U, UK, y), sK, _rotate(model.V, VK, z)


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
        U, s, V = low_rank_update(
            model, _split(model.U, D, model.U.T @ D, exact), p
        )
        return replace(
            model, U=U, s=s, V=V, doc_ids=model.doc_ids + list(doc_ids),
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
    T, gw = _weight_rows(model, counts, terms, global_weights)
    vocab = model.vocabulary.copy()
    for t in terms:
        if t in vocab:
            raise ShapeError(f"term {t!r} already present")
        vocab.add(t)
    q = T.shape[0]
    with span("lsi.update.terms", q=q, exact=exact):
        registry.inc("updating.updated_terms", q)
        That = T @ model.V  # (q, k)
        U, s, V = low_rank_update(
            model, q, _split(model.V, T.T, That.T, exact)
        )
        return replace(
            model, U=U, s=s, V=V, vocabulary=vocab.freeze(),
            doc_ids=list(model.doc_ids),
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
    subspaces are kept via residual factors, giving the true rank-k SVD
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
        U, s, V = low_rank_update(
            model,
            _split(model.U, Y, model.U.T @ Y, exact),
            _split(model.V, Z, model.V.T @ Z, exact),
        )
        return replace(
            model, U=U, s=s, V=V, doc_ids=list(model.doc_ids),
            provenance="svd-update",
        )
