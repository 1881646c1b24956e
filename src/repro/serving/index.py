"""The scaled comparison space of a model: built once, owned by the model.

Every query against an :class:`~repro.core.model.LSIModel` is compared
with the rows of ``V_k Σ_k`` (§2.2) and needs their norms.  Both follow
from the factors alone, so :func:`scaled_documents` derives them once
(C-contiguous, so the GEMM streams rows) and keeps them **on the model
instance**.

Lifetime rule
-------------
A model is immutable once built: folding-in, SVD-updating, the fast
update and ``truncated`` all return a *new* model, and
``dataclasses.replace`` carries dataclass fields only, so a successor
starts without the memo and derives its own.  The arrays are read-only
and die with their model; nothing outlives it, nothing is keyed on it,
and there is nothing to invalidate.  Pinning an epoch is
:class:`~repro.server.state.EpochSnapshot`'s job — it holds the model,
hence these arrays, for as long as a query needs them.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import LSIModel
from repro.obs.metrics import registry
from repro.serving.kernel import row_norms

__all__ = ["scaled_documents"]


def scaled_documents(model: LSIModel) -> tuple[np.ndarray, np.ndarray]:
    """``(V_k Σ_k, its row norms)`` for ``model``, derived on first use.

    Both arrays are read-only and shared by every scorer of this model
    (the retrieval engine, epoch snapshots, the sharded search).
    """
    memo = getattr(model, "_scaled_documents", None)
    if memo is None:
        coords = np.ascontiguousarray(model.V * model.s)
        norms = row_norms(coords)
        coords.flags.writeable = False
        norms.flags.writeable = False
        registry.inc("serving.index_builds")
        # An instance attribute, not a dataclass field: replace() drops it.
        memo = model._scaled_documents = (coords, norms)
    return memo
