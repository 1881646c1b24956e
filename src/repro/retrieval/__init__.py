"""Retrieval engines and interactive-retrieval machinery.

* :mod:`repro.retrieval.keyword` — the standard keyword vector method
  (SMART-style), the baseline every §5 comparison is made against.
* :mod:`repro.retrieval.engine` — the LSI retrieval engine.
* :mod:`repro.retrieval.feedback` — relevance feedback (§5.1): replace
  the query with the mean of relevant document vectors, or Rocchio
  reweighting.
* :mod:`repro.retrieval.filtering` — information filtering (§5.3):
  standing interest profiles matched against a document stream.
"""
