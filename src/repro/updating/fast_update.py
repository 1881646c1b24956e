"""Fast (projection-based) SVD-updating of the rank-k model.

Implements the document-update variant of Vecharynski & Saad, *Fast
updating algorithms for latent semantic indexing* (see PAPERS.md): the
exact Zha-Simon update (:func:`repro.updating.svd_update.
update_documents` with ``exact=True``) must orthonormalize the full
residual ``R = (I − U_k U_kᵀ) D`` — an ``m × p`` factorization whose
cost dominates sustained ingest — before solving the small core SVD.
The fast update replaces that residual basis with a *much smaller*
one: a rank-``l`` (``l ≪ p``) orthonormal basis ``X`` of the dominant
left singular directions of ``R``, computed by a seeded randomized
range finder (Gaussian sketch + power iteration).  The updated factors
are then found by a Rayleigh-Ritz projection onto ``span([U_k, X])``::

    B = (A_k | D) ≈ [U_k X] K [V_k ⊕ I_p]ᵀ,
    K = [[Σ_k, U_kᵀD], [0, XᵀR]]          ((k+l) × (k+p))

which is Eq. 10's core with ``X`` in place of the residual's full
basis, so :func:`~repro.updating.svd_update.low_rank_update` solves and
rotates it as it does Eq. 10.  Because
``X ⊂ range(R) ⟂ span(U_k)``, the produced ``U`` and ``V`` are
orthonormal to rounding — the update inherits the §4.3 drift behaviour
of the exact update, not of folding-in — while the per-batch cost
drops from the exact update's ``O(m p²)`` residual factorization to
``O(m p l)`` sketch products.  When ``l ≥ rank(R)`` the sketch spans
the whole residual and the result coincides with the exact update.
Each sketch basis is one rank-revealing
:func:`~repro.linalg.svd.dense_svd` call (LAPACK), as is the core; at
the writer's ``k = 48``, ``p = l = 8`` each is well under a millisecond.

Determinism: the Gaussian sketch is seeded from ``(seed, n_documents,
p)``, so replaying the same batch against the same model reproduces
bit-identical factors — the property the store's WAL recovery relies
on when the cluster's primary writer ingests through this kernel.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.updating.folding import _weight_columns
from repro.updating.svd_update import _RESIDUAL_TOL, _range_basis, low_rank_update

__all__ = ["fast_update_documents"]

#: Default sketch rank: enough for the low-dimensional residual energy
#: of topical text batches, tiny next to typical batch sizes.
DEFAULT_SKETCH_RANK = 8


def _residual_basis(
    R: np.ndarray,
    U: np.ndarray,
    rank: int,
    *,
    power_iters: int,
    scale: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rank-``rank`` orthonormal sketch of ``range(R)``, kept ``⟂ U``.

    Halko-style randomized range finder: ``Y = R Ω`` with a Gaussian
    ``Ω``, sharpened by ``power_iters`` rounds of ``R Rᵀ`` to bias the
    basis toward the residual's dominant directions.  The final
    re-projection against ``U`` removes any retained-subspace component
    rounding re-introduced, so ``[U, X]`` stays orthonormal.
    """
    p = R.shape[1]
    l = min(rank, p, R.shape[0])
    if l <= 0 or np.sqrt(np.sum(R * R)) <= _RESIDUAL_TOL * max(scale, 1.0):
        return np.zeros((R.shape[0], 0))
    Y = R @ rng.standard_normal((p, l))
    for _ in range(max(0, power_iters)):
        Q = _range_basis(Y, scale)[0]
        if Q.shape[1] == 0:
            return Q
        Y = R @ (R.T @ Q)
    X = _range_basis(Y, scale)[0]
    if X.shape[1]:
        X = X - U @ (U.T @ X)
        X = _range_basis(X, scale)[0]
    return X


def fast_update_documents(
    model: LSIModel,
    counts: np.ndarray,
    doc_ids: Sequence[str],
    *,
    rank: int = DEFAULT_SKETCH_RANK,
    power_iters: int = 1,
    seed: int = 0,
) -> LSIModel:
    """Rayleigh-Ritz fast update with ``p`` new document columns.

    Approximates the rank-k SVD of ``B = (A_k | D)`` (Eq. 10's target)
    through a rank-``rank`` sketch of the residual ``(I − U_kU_kᵀ)D``
    instead of its full orthonormal factor — the Vecharynski-Saad
    construction (module docstring).  Factors come back orthonormal to
    rounding; ``rank ≥ rank(residual)`` reproduces the exact update.
    """
    with span("lsi.update.fast_documents", rank=rank) as sp:
        D = _weight_columns(model, counts)  # (m, p) weighted
        p = D.shape[1]
        sp.set_attr("p", p)
        if len(doc_ids) != p:
            raise ShapeError(f"{len(doc_ids)} ids for {p} documents")
        if rank < 1:
            raise ShapeError(f"sketch rank must be >= 1, got {rank}")
        registry.inc("updating.fast_updated_documents", p)
        Dhat = model.U.T @ D  # (k, p)
        R = D - model.U @ Dhat  # residual, ⟂ span(U_k)
        scale = np.sqrt(np.sum(D * D))
        rng = np.random.default_rng(
            [int(seed) & 0x7FFFFFFF, model.n_documents, p]
        )
        X = _residual_basis(
            R, model.U, rank, power_iters=power_iters, scale=scale, rng=rng
        )
        sp.set_attr("sketch_rank", X.shape[1])
        # Eq. 10 with the sketch X standing in for the residual basis:
        # K = [[Σ_k, D̂], [0, XᵀR]], (k+l) × (k+p).
        U, s, V = low_rank_update(model, (Dhat, X, X.T @ R), p)
        return replace(
            model, U=U, s=s, V=V, doc_ids=model.doc_ids + list(doc_ids),
            provenance="fast-update",
        )
