"""Recomputing the SVD from scratch (§3.4) — the accuracy yardstick.

"Ideally, the most robust way to produce the best rank-k approximation to
a term-document matrix which has been updated ... is to simply compute the
SVD of a reconstructed term-document matrix Ã."  Recomputing lets the new
content reshape the latent structure (Fig. 8's {M13, M14, M15} cluster),
at the cost the paper quantifies in Table 7 and the memory the TREC
anecdote laments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.build import fit_lsi_from_tdm
from repro.core.model import LSIModel
from repro.errors import ShapeError
from repro.sparse.build import from_dense
from repro.sparse.csc import hstack_csc
from repro.text.tdm import TermDocumentMatrix

__all__ = ["recompute_with_documents", "recompute_model"]


def recompute_with_documents(
    tdm: TermDocumentMatrix,
    new_counts: np.ndarray,
    new_doc_ids: Sequence[str],
    k: int,
    *,
    scheme=None,
    method: str = "auto",
    seed=0,
) -> LSIModel:
    """Rebuild Ã = (A | D) from raw counts and decompose it from scratch.

    Unlike SVD-updating, the *raw* matrix is extended before weighting, so
    global term weights are recomputed over the full collection — exactly
    what "creating an LSI-generated database ... from scratch" means.
    """
    new_counts = np.asarray(new_counts, dtype=np.float64)
    if new_counts.ndim == 1:
        new_counts = new_counts[:, None]
    if new_counts.shape[0] != tdm.n_terms:
        raise ShapeError(
            f"new documents have {new_counts.shape[0]} rows for "
            f"m={tdm.n_terms}"
        )
    if new_counts.shape[1] != len(new_doc_ids):
        raise ShapeError("new_doc_ids length mismatch")
    combined = hstack_csc([tdm.matrix, from_dense(new_counts)])
    big = TermDocumentMatrix(
        combined, tdm.vocabulary, list(tdm.doc_ids) + list(new_doc_ids)
    )
    model = fit_lsi_from_tdm(big, k, scheme=scheme, method=method, seed=seed)
    model.provenance = "recompute"
    return model


def recompute_model(
    tdm: TermDocumentMatrix, k: int, *, scheme=None, method: str = "auto", seed=0
) -> LSIModel:
    """Decompose a matrix from scratch, tagged as a recompute baseline."""
    model = fit_lsi_from_tdm(tdm, k, scheme=scheme, method=method, seed=seed)
    model.provenance = "recompute"
    return model
