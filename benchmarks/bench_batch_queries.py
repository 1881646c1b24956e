"""Batched vs per-query scoring — the loop-to-GEMM rewrite, and the flush.

The §5.6 open issue "efficiently comparing queries to documents" at the
evaluation-harness scale: hundreds of queries against one space.
Batching replaces the per-query loop with two dense matrix products;
results are identical (asserted), the bench measures the speedup.

:func:`test_flush_width` times what a server's flush runs — the exact
``EpochSnapshot.search`` of q queries, ``top=10`` — on a 50 000 × 64
snapshot, in a child process with one BLAS thread and the ledger's
malloc settings on one CPU (``ledger/servers.py``), as a served flush
runs.  ``python benchmarks/bench_batch_queries.py [n]`` prints the same
timings as JSON.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np

import repro
from conftest import SMOKE, emit
from repro.core.build import fit_lsi
from repro.core.model import LSIModel
from repro.core.query import batch_project_queries, project_query
from repro.core.similarity import cosine_similarities
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.obs.metrics import registry
from repro.server.state import EpochSnapshot
from repro.text.vocabulary import Vocabulary

FLUSH_WIDTHS = (1, 2, 3, 4, 8, 16)
FLUSH_ROUNDS = 60  # flushes timed at each width, the widths interleaved
FLUSH_ROWS, FLUSH_K, FLUSH_TOP = (5_000 if SMOKE else 50_000), 64, 10
#: What the ledger's servers run with (``ledger/servers.py``, PINNED_ENV).
SERVER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}


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


def _flush_snapshot(n: int) -> tuple[EpochSnapshot, np.ndarray]:
    """A synthetic ``n × 64`` snapshot and 16 scaled queries."""
    rng = np.random.default_rng(72)
    vocab = Vocabulary(f"t{i}" for i in range(FLUSH_K))
    vocab.freeze()
    model = LSIModel(
        U=np.eye(FLUSH_K), s=np.sort(rng.random(FLUSH_K) + 0.5)[::-1].copy(),
        V=rng.standard_normal((n, FLUSH_K)), vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(n)],
    )
    snapshot = EpochSnapshot(0, model)
    return snapshot, snapshot.scale(rng.standard_normal((16, FLUSH_K)))


def time_flushes(n: int, rounds: int = FLUSH_ROUNDS) -> dict:
    """Median milliseconds per flush and per fp32 pass at each width,
    the widths interleaved round by round."""
    snapshot, Qs = _flush_snapshot(n)
    flush = {q: [] for q in FLUSH_WIDTHS}
    scan = {q: [] for q in FLUSH_WIDTHS}
    for _ in range(rounds):
        for q in FLUSH_WIDTHS:
            registry.reset("serving.")
            t0 = time.perf_counter()
            snapshot.search(Qs[:q], top=FLUSH_TOP)
            flush[q].append(time.perf_counter() - t0)
            scan[q].append(registry.histogram("serving.scan_seconds").sum)
    return {
        str(q): {
            "flush_ms": float(np.median(flush[q])) * 1e3,
            "scan_ms": float(np.median(scan[q])) * 1e3,
        }
        for q in FLUSH_WIDTHS
    }


def test_flush_width(evidence):
    """A flush of q queries costs one pass over the unit rows, not q.

    Parity at every size: each ranking of a q-query flush is the same
    bits as that query flushed alone.  At full size, timed as a server
    runs (one BLAS thread, one CPU): a 2-query flush costs at most 1.3×
    a 1-query one, and time per query does not rise from q = 1 to 4;
    those timings are committed as ``BENCH_batch_queries.json``.
    """
    snapshot, Qs = _flush_snapshot(FLUSH_ROWS)
    for q in FLUSH_WIDTHS:
        batch = snapshot.search(Qs[:q], top=FLUSH_TOP)[0]
        alone = [
            snapshot.search(Qs[i:i + 1], top=FLUSH_TOP)[0][0] for i in range(q)
        ]
        assert [[(j, s.hex()) for j, s in r] for r in batch] == [
            [(j, s.hex()) for j, s in r] for r in alone
        ]

    src = pathlib.Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, **SERVER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    child = subprocess.run(
        [sys.executable, __file__, str(FLUSH_ROWS)],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    timings = {int(q): row for q, row in json.loads(child.stdout).items()}
    per_query = {q: timings[q]["flush_ms"] / q for q in FLUSH_WIDTHS}
    emit(
        f"flush width: exact search, top={FLUSH_TOP}, "
        f"{FLUSH_ROWS} × {FLUSH_K}, one BLAS thread",
        [
            f"q={q:2d}  flush {timings[q]['flush_ms']:6.3f} ms  "
            f"per query {per_query[q]:6.3f} ms  "
            f"fp32 pass {timings[q]['scan_ms']:6.3f} ms"
            for q in FLUSH_WIDTHS
        ],
    )
    if SMOKE:
        return
    assert timings[2]["flush_ms"] <= 1.3 * timings[1]["flush_ms"]
    assert all(per_query[q + 1] <= per_query[q] for q in (1, 2, 3))
    evidence["flush_width"] = {
        "rows": FLUSH_ROWS, "k": FLUSH_K, "top": FLUSH_TOP, **SERVER_ENV,
        "widths": {
            str(q): {**timings[q], "per_query_ms": per_query[q]}
            for q in FLUSH_WIDTHS
        },
    }
    evidence["repeats"] = FLUSH_ROUNDS


if __name__ == "__main__":
    try:  # one CPU, as the ledger pins its servers
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    rows = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    print(json.dumps(time_flushes(rows)))
