"""Parallel execution helpers.

The paper sits in the HPC literature (SC '95) and one of its open issues
(§5.6) is "efficiently comparing queries to documents (finding near
neighbors in high-dimension spaces)".  These helpers address it at
laptop scale:

* :mod:`repro.parallel.pool` — a thread-pool map (NumPy releases the GIL
  inside its kernels, so scoring shards in threads scales) with a
  deterministic sequential fallback;
* :mod:`repro.parallel.sharding` — splitting a document collection into
  shards and merging per-shard top-z results exactly, for one query
  (:func:`sharded_search`) or a whole batch
  (:func:`sharded_batch_search`) over the model's memoized ``V_k Σ_k``.
"""

from repro.parallel.pool import parallel_map
from repro.parallel.sharding import (
    merge_topk,
    shard_documents,
    sharded_batch_search,
    sharded_search,
)

__all__ = [
    "parallel_map",
    "shard_documents",
    "sharded_search",
    "sharded_batch_search",
    "merge_topk",
]
