"""Parallel execution helpers.

The paper sits in the HPC literature (SC '95) and one of its open issues
(§5.6) is "efficiently comparing queries to documents (finding near
neighbors in high-dimension spaces)".  The cluster tier answers it by
scoring contiguous row ranges in separate worker processes;
:mod:`repro.parallel.sharding` holds what those ranges must agree on —
the canonical partition (:func:`shard_bounds`) and the exact top-z merge
of per-range results (:func:`merge_topk`).
"""
