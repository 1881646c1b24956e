"""The query-serving fast path.

The ROADMAP's north star — serve heavy traffic as fast as the hardware
allows — runs through one hot loop: project the query (Eq. 6), score it
against every document (§2.2 cosine), rank, filter (§3.1).  The seed
implementation recomputed ``V_k Σ_k`` and all n document norms on every
query and ranked with a full O(n log n) sort.  This package is the
serving-grade rewrite, treating the term-document model as a reusable
computational object (Antonellis & Gallopoulos) whose derived
quantities are built once and queried many times:

* :mod:`repro.serving.kernel` — the fp64 cosine kernels: the full-width
  GEMM (the reference surface and what evaluation reads) and the
  row-local one whose values the ranked paths report;
* :mod:`repro.serving.index` — :func:`scaled_documents` and
  :func:`scaled_terms`, the read-only row norms and single-precision
  unit rows of ``V_k Σ_k`` and ``U_k Σ_k``, derived from the model's own
  factors and memoized on the model instance itself (every update
  returns a new model, so there is nothing to invalidate);
* :mod:`repro.serving.scan` — :func:`ranked_scan`, the one exact ranking
  (single, batched, row range, cluster): an fp32 pass over the unit rows
  picks a provably sufficient candidate set, fp64 rescoring of those
  rows alone ranks them;
* :mod:`repro.serving.snapshot` — :class:`EpochSnapshot`, one pinned
  epoch of a row range with the one ``search`` every serving tier
  calls, and :func:`check_search_args`, the one well-formed request;
* :mod:`repro.serving.topk` — ``argpartition`` top-k selection that is
  element-identical to the stable full sort, plus vectorized §3.1
  threshold filtering: the one cut of every ranking in the library.

Perf counters for all of the above live in
:data:`repro.obs.metrics.registry` under the ``serving.`` prefix.
"""
