"""The query-serving fast path.

The ROADMAP's north star — serve heavy traffic as fast as the hardware
allows — runs through one hot loop: project the query (Eq. 6), score it
against every document (§2.2 cosine), rank, filter (§3.1).  The seed
implementation recomputed ``V_k Σ_k`` and all n document norms on every
query and ranked with a full O(n log n) sort.  This package is the
serving-grade rewrite, treating the term-document model as a reusable
computational object (Antonellis & Gallopoulos) whose derived
quantities are built once and queried many times:

* :mod:`repro.serving.kernel` — the single GEMM cosine kernel every
  scoring path (single, batched, sharded) routes through;
* :mod:`repro.serving.index` — :func:`scaled_documents`, the read-only
  ``V_k Σ_k`` / row norms memoized on the model instance itself (every
  update returns a new model, so there is nothing to invalidate);
* :mod:`repro.serving.topk` — ``argpartition`` top-k selection that is
  element-identical to the stable full sort, plus vectorized §3.1
  threshold filtering;
* :mod:`repro.serving.querycache` — an LRU of projected query vectors
  keyed on normalized token counts.

Perf counters for all of the above live in
:data:`repro.obs.metrics.registry` under the ``serving.`` prefix.
"""

from repro.serving.index import scaled_documents
from repro.serving.kernel import cosine_scores, row_norms
from repro.serving.querycache import QueryVectorCache
from repro.serving.topk import ranked_order, ranked_pairs, topk_indices

__all__ = [
    "scaled_documents",
    "cosine_scores",
    "row_norms",
    "QueryVectorCache",
    "topk_indices",
    "ranked_order",
    "ranked_pairs",
]
