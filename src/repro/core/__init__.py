"""The LSI core: semantic space construction, queries, similarity.

The pipeline of §2:

1. :func:`fit_lsi` — parse → term-document matrix (Eq. 4) → weighting
   (Eq. 5) → truncated SVD (Eq. 2) → :class:`LSIModel`;
2. :func:`project_query` — Eq. 6, ``q̂ = qᵀ U_k Σ_k⁻¹``;
3. :func:`rank_documents` / :func:`retrieve` — cosine ranking against the
   document vectors, with the threshold semantics of §3.1.
"""
