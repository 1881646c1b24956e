"""Batched vs per-query scoring — the loop-to-GEMM rewrite.

The §5.6 open issue "efficiently comparing queries to documents" at the
evaluation-harness scale: hundreds of queries against one space.
Batching replaces the per-query loop with two dense matrix products;
results are identical (asserted), the bench measures the speedup.
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi
from repro.core.query import batch_project_queries, project_query
from repro.core.similarity import cosine_similarities
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.server.state import EpochSnapshot


def test_batch_query_scoring(benchmark):
    col = topic_collection(
        SyntheticSpec(
            n_topics=8, docs_per_topic=25, doc_length=40,
            concepts_per_topic=15, queries_per_topic=12, query_length=3,
        ),
        seed=71,
    )
    model = fit_lsi(col.documents, k=20, scheme="log_entropy", seed=0)
    queries = col.queries  # 96 queries

    Q = batch_project_queries(model, queries)
    snapshot = EpochSnapshot(0, model)

    batched = benchmark(snapshot.score_batch, Q)

    # Identical to the per-query path.
    import time

    t0 = time.perf_counter()
    singles = np.stack([
        cosine_similarities(model, project_query(model, q)) for q in queries
    ])
    loop_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    snapshot.score_batch(Q)
    batch_time = time.perf_counter() - t0

    assert np.allclose(batched, singles, atol=1e-12)
    emit(
        "batched multi-query scoring",
        [
            f"{len(queries)} queries × {model.n_documents} documents, "
            f"k={model.k}",
            f"per-query loop: {loop_time * 1e3:.1f} ms "
            f"(includes projection)",
            f"batched GEMM:   {batch_time * 1e3:.2f} ms "
            f"(projection amortized)",
            "identical score matrices (max abs diff < 1e-12)",
        ],
    )