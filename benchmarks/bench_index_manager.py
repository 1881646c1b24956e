"""§5.6 — real-time updating: the managed incremental index.

Regenerates the operational trade-off behind "perform SVD-updating ...
in real time for databases that change frequently": a stream of arriving
documents handled by (a) fold-everything, (b) recompute-every-batch, and
(c) the planner-driven manager that folds cheaply and consolidates on
budget.  Reports wall-clock and final index quality (drift + retrieval).
Times the managed ingestion of the whole stream.
"""

import time

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi_from_tdm
from repro.core.query import project_query
from repro.core.similarity import retrieve
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm
from repro.updating.folding import fold_in_texts
from repro.updating.manager import LSIIndexManager
from repro.updating.orthogonality import drift_report
from repro.updating.recompute import recompute_model


def _setup():
    col = topic_collection(
        SyntheticSpec(n_topics=5, docs_per_topic=30, doc_length=40,
                      concepts_per_topic=12, queries_per_topic=1),
        seed=61,
    )
    initial = col.documents[:90]
    stream = col.documents[90:]
    tdm = build_tdm(initial, ParsingRules())
    return col, tdm, stream


def test_managed_incremental_index(benchmark):
    col, tdm, stream = _setup()
    batches = [stream[i : i + 5] for i in range(0, len(stream), 5)]

    # (a) fold everything, never consolidate
    t0 = time.perf_counter()
    fold_model = fit_lsi_from_tdm(tdm, 10)
    for b, batch in enumerate(batches):
        fold_model = fold_in_texts(
            fold_model, batch, doc_ids=[f"f{b}_{i}" for i in range(len(batch))]
        )
    fold_time = time.perf_counter() - t0
    fold_drift = drift_report(fold_model).doc_loss

    # (b) recompute after every batch
    t0 = time.perf_counter()
    from repro.sparse.build import from_dense
    from repro.sparse.csc import hstack_csc
    from repro.text.tdm import TermDocumentMatrix, count_vector
    from repro.text.tokenizer import tokenize

    cur = tdm
    for b, batch in enumerate(batches):
        counts = np.stack(
            [count_vector(tokenize(t), cur.vocabulary) for t in batch], axis=1
        )
        cur = TermDocumentMatrix(
            hstack_csc([cur.matrix, from_dense(counts)]),
            cur.vocabulary,
            list(cur.doc_ids) + [f"r{b}_{i}" for i in range(len(batch))],
        )
        recompute_model(cur, 10)
    recompute_time = time.perf_counter() - t0

    # (c) the manager
    def managed():
        mgr = LSIIndexManager(
            build_tdm(col.documents[:90], ParsingRules()), k=10,
            distortion_budget=0.15,
        )
        return mgr, [mgr.add_texts(batch) for batch in batches]

    t0 = time.perf_counter()
    mgr, events = benchmark.pedantic(managed, rounds=1, iterations=1)
    managed_time = time.perf_counter() - t0
    managed_drift = mgr.drift()
    consolidations = sum(1 for e in events if e.action != "fold-in")

    rows = [
        f"stream: {len(stream)} documents in {len(batches)} batches",
        f"{'strategy':<24s}{'seconds':>9s}{'final ‖V̂ᵀV̂−I‖₂':>18s}",
        f"{'fold-everything':<24s}{fold_time:>9.3f}{fold_drift:>18.3f}",
        f"{'recompute-every-batch':<24s}{recompute_time:>9.3f}"
        f"{0.0:>18.3f}",
        f"{'managed (planner)':<24s}{managed_time:>9.3f}"
        f"{managed_drift:>18.3f}",
        f"manager consolidations: {consolidations} "
        f"(vs {len(batches)} recomputes in strategy b)",
    ]
    emit("§5.6 — incremental index maintenance strategies", rows)

    # Shape claims: the manager consolidates at least once but far less
    # often than per-batch recomputing; its drift stays below the
    # fold-everything endpoint; fold-everything is the fastest.
    assert 1 <= consolidations < len(batches)
    assert managed_drift <= fold_drift + 1e-9
    assert fold_time < recompute_time

    # And the managed index still answers queries correctly.
    q = col.queries[0]
    qhat = project_query(mgr.model, q)
    top_docs = retrieve(mgr.model, qhat, top=5)
    assert len(top_docs) == 5
