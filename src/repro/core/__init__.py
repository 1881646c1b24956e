"""The LSI core: semantic space construction, queries, similarity.

The pipeline of §2:

1. :func:`fit_lsi` — parse → term-document matrix (Eq. 4) → weighting
   (Eq. 5) → truncated SVD (Eq. 2) → :class:`LSIModel`;
2. :func:`project_query` — Eq. 6, ``q̂ = qᵀ U_k Σ_k⁻¹``;
3. :func:`rank_documents` / :func:`retrieve` — cosine ranking against the
   document vectors, with the threshold semantics of §3.1.
"""

from repro.core.model import LSIModel
from repro.core.build import fit_lsi, fit_lsi_from_tdm
from repro.core.query import project_query
from repro.core.similarity import (
    cosine_similarities,
    doc_doc_similarities,
    nearest_terms,
    rank_documents,
    retrieve,
    term_term_similarities,
)
from repro.core.kselect import (
    KSelection,
    choose_k_by_energy,
    choose_k_by_gap,
    choose_k_by_sweep,
)

__all__ = [
    "LSIModel",
    "fit_lsi",
    "fit_lsi_from_tdm",
    "project_query",
    "cosine_similarities",
    "rank_documents",
    "retrieve",
    "term_term_similarities",
    "doc_doc_similarities",
    "nearest_terms",
    "KSelection",
    "choose_k_by_energy",
    "choose_k_by_gap",
    "choose_k_by_sweep",
]
