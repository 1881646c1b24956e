"""Update-method selection.

"In practice, the difference between folding-in and SVD-updating is
likely to depend on the number of new documents and terms relative to the
number in the original SVD of A.  Thus, we expect SVD-updating to be
especially valuable for rapidly changing databases."  (§3.4)

:func:`plan_update` encodes that trade-off: folding-in while the appended
fraction stays small (its distortion is bounded and its cost is lowest),
SVD-updating once the new material is a substantial fraction of the
collection, and recomputing when the update is so large that the exact
decomposition is no more expensive anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.updating.cost_model import (
    fold_documents_flops,
    recompute_flops,
    svd_update_flops,
)

__all__ = ["UpdatePlan", "plan_update"]


@dataclass(frozen=True)
class UpdatePlan:
    """Chosen method plus the estimates behind the decision.

    Attributes
    ----------
    method:
        ``"fold-in"``, ``"svd-update"`` or ``"recompute"``.
    flops:
        Per-method flop estimates from the Table 7 model.
    new_fraction:
        ``p / n`` — the relative size of the update.
    reason:
        One-line human-readable justification.
    """

    method: str
    flops: dict[str, int]
    new_fraction: float
    reason: str


def plan_update(
    m: int,
    n: int,
    k: int,
    p: int,
    *,
    nnz_per_doc: float = 10.0,
    nnz_existing: int | None = None,
    distortion_budget: float = 0.1,
) -> UpdatePlan:
    """Choose how to add ``p`` documents to an ``(m, n)`` rank-``k`` model.

    Parameters
    ----------
    distortion_budget:
        Maximum tolerated ``p / n``.  Folding-in is allowed while the
        folded fraction stays under this budget (the paper: folding-in is
        fine when ``d ≪ n``); above it, accuracy requires SVD-updating or
        recomputing, picked by estimated flops.
    """
    if min(m, n, k, p) <= 0:
        raise ValueError("m, n, k, p must all be positive")
    nnz_d = int(round(nnz_per_doc * p))
    nnz_a = int(round(nnz_per_doc * n)) if nnz_existing is None else nnz_existing
    flops = {
        "fold-in": fold_documents_flops(m, k, p),
        "svd-update": svd_update_flops(m, n + p, k, 0, p, nnz_d),
        "recompute": recompute_flops(nnz_a + nnz_d, k),
    }
    frac = p / n
    if frac <= distortion_budget:
        return UpdatePlan(
            "fold-in", flops, frac,
            f"p/n = {frac:.3f} within distortion budget "
            f"{distortion_budget}; folding-in is {flops['svd-update'] // max(flops['fold-in'], 1)}x "
            "cheaper than SVD-updating",
        )
    if flops["svd-update"] < flops["recompute"]:
        return UpdatePlan(
            "svd-update", flops, frac,
            f"p/n = {frac:.3f} exceeds budget; SVD-updating is cheaper "
            "than recomputing and keeps exact orthogonality",
        )
    return UpdatePlan(
        "recompute", flops, frac,
        f"p/n = {frac:.3f}: update is so large that a from-scratch "
        "decomposition costs no more and is exact",
    )
