"""ANN serving tier: probe-bounded scan vs exhaustive GEMM at scale.

The serving counterpart of ``bench_ann.py``'s §5.6 curve: the same
recall-vs-cost dial, measured where it matters — through
:class:`~repro.serving.snapshot.EpochSnapshot`, the object every request in
``repro serve`` scores against.  On a large hub-structured synthetic
collection (~1M documents locally, ~150k under ``BENCH_SMOKE``) this
sweeps the probe count and reports, per level:

* **recall@10** against the exhaustive exact scan,
* **QPS** of ``snapshot.search_ann`` (rank cells → one fp32 pass per
  probed cell slice → prefilter cut → fp64 rescoring of the survivors)
  vs the exact ``snapshot.search`` baseline — the path a request
  without ``probes`` takes (one fp32 pass over every row, same cut and
  rescoring).

Acceptance: probing every cell is element-identical to the exact path;
some probe level reaches ≥ 0.95 recall@10, and at full size sustains
≥ 10× the exact scan's QPS there (each QPS the median of ``REPEATS``
passes over 256 queries).  The ledger's ``serve_ann`` workload measures
the same path end to end on 50 000 documents at one probe setting; this
bench is the source for the 1M-document probe sweep, which a full-size
run records as ``BENCH_ann_serving.json``.  ``BENCH_SMOKE=1`` (~150k
documents, one pass) checks exactness and recall only.

Run directly::

    BENCH_SMOKE=1 PYTHONPATH=src:benchmarks python -m pytest \
        benchmarks/bench_ann_serving.py -x -q -s --benchmark-disable
"""

from __future__ import annotations

import time

import numpy as np

from conftest import SMOKE, emit, summarize
from repro.core.model import LSIModel
from repro.server.state import ServingState
from repro.serving.ann import CoarseQuantizer
from repro.text.vocabulary import Vocabulary

N_DOCS = 150_000 if SMOKE else 1_000_000
K = 32
N_HUBS = 32 if SMOKE else 64
N_QUERIES = 32 if SMOKE else 256
TOP = 10
PROBE_SWEEP = (1, 2, 4, 8, 16, 32)
MIN_RECALL = 0.95
MIN_SPEEDUP = 10.0
REPEATS = 1 if SMOKE else 3


def _serving_model(seed: int = 11) -> LSIModel:
    """Hub-structured document coordinates straight from random factors.

    Real collections cluster (that is the §5.6 premise); documents are
    drawn around ``N_HUBS`` hub directions with moderate noise, so the
    coarse quantizer has structure to find — and queries, drawn as
    perturbed documents, have concentrated neighbourhoods.
    """
    rng = np.random.default_rng(seed)
    hubs = rng.standard_normal((N_HUBS, K))
    V = (
        hubs[rng.integers(N_HUBS, size=N_DOCS)]
        + 0.25 * rng.standard_normal((N_DOCS, K))
    )
    vocab = Vocabulary(f"t{i}" for i in range(K))
    vocab.freeze()
    return LSIModel(
        U=np.eye(K),
        s=np.sort(rng.random(K) + 0.5)[::-1],
        V=V,
        vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(N_DOCS)],
    )


def _queries(model: LSIModel, seed: int = 23) -> np.ndarray:
    """Projected query vectors: perturbed document coordinates.

    ``search_ann`` takes the pre-scaled ``qhat`` (it applies ``Σ``
    itself, like ``score_batch``), so queries live in ``V``-space.
    """
    rng = np.random.default_rng(seed)
    picks = rng.choice(model.n_documents, size=N_QUERIES, replace=False)
    return (
        model.V[picks]
        + 0.15 * rng.standard_normal((N_QUERIES, model.k))
    )


def _qps(search, queries) -> tuple[list, dict]:
    """``search`` over every query: the results of the last pass and
    the summary of ``REPEATS`` passes' QPS."""
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        results = [search(q) for q in queries]
        rates.append(len(queries) / (time.perf_counter() - t0))
    return results, summarize(rates)


def test_ann_serving_qps_recall_sweep(evidence):
    model = _serving_model()
    n_clusters = max(1, int(np.sqrt(N_DOCS)))
    t0 = time.perf_counter()
    ann = CoarseQuantizer.train(model.V, model.s, n_clusters, seed=0)
    train_seconds = time.perf_counter() - t0
    # Derives the cell-ordered scoring rows, before the clock.
    snapshot = ServingState.for_model(model, ann=ann).current()
    queries = _queries(model)

    # Exact baseline: the per-request path a probe-less search takes.
    def exact_one(q: np.ndarray) -> list[tuple[int, float]]:
        return snapshot.search(snapshot.scale(q), top=TOP)[0][0]

    exact_one(queries[0])  # warm-up (BLAS spin-up, page faults)
    exact_pairs, exact = _qps(exact_one, queries)
    exact_top = [[j for j, _ in pairs] for pairs in exact_pairs]
    exact_qps = exact["median"]

    # Probing every cell is the exact scan, element for element.
    for q, want in zip(queries, exact_pairs):
        full, _ = snapshot.search_ann(q, probes=n_clusters, top=TOP)
        assert full == want

    rows = [
        f"n={N_DOCS} documents, k={K}, {n_clusters} cells "
        f"(trained in {train_seconds:.1f}s), {N_QUERIES} queries",
        f"exact scan: {exact_qps:.1f} QPS (baseline)",
        f"{'probes':>7s}{'recall@10':>11s}{'QPS':>10s}{'speedup':>9s}"
        f"{'cand frac':>11s}",
    ]
    sweep = []
    for probes in PROBE_SWEEP:
        recalls, fracs = [], []
        snapshot.search_ann(queries[0], probes=probes, top=TOP)  # warm-up
        results, rate = _qps(
            lambda q: snapshot.search_ann(q, probes=probes, top=TOP), queries
        )
        qps = rate["median"]
        for (pairs, stats), want in zip(results, exact_top):
            got = {j for j, _ in pairs}
            recalls.append(len(got & set(want)) / TOP)
            fracs.append(stats["candidates"] / N_DOCS)
        level = {
            "probes": probes,
            "recall_at_10": float(np.mean(recalls)),
            "qps": rate,
            "speedup": float(qps / exact_qps),
            "candidate_fraction": float(np.mean(fracs)),
        }
        sweep.append(level)
        rows.append(
            f"{probes:>7d}{level['recall_at_10']:>11.3f}{qps:>10.1f}"
            f"{level['speedup']:>8.1f}x{level['candidate_fraction']:>11.4f}"
        )
    emit("ANN serving tier — QPS/recall@10 vs probes (EpochSnapshot)", rows)

    # Recall is monotone non-decreasing in probes (candidate nesting).
    recalls = [level["recall_at_10"] for level in sweep]
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:])), recalls

    # The acceptance floor: some probe level holds >= MIN_RECALL
    # recall@10 — at full size, at >= MIN_SPEEDUP x the exact scan's QPS.
    best = max(
        (level for level in sweep if level["recall_at_10"] >= MIN_RECALL),
        key=lambda level: level["speedup"],
        default=None,
    )
    assert best is not None, (
        f"no probe level reached recall@10 >= {MIN_RECALL}: {recalls}"
    )
    if not SMOKE:
        assert best["speedup"] >= MIN_SPEEDUP, (
            f"no probe level reached recall@10 >= {MIN_RECALL} at "
            f">= {MIN_SPEEDUP}x exact QPS; best above recall floor: {best}"
        )
    evidence.update(
        n_documents=N_DOCS,
        k=K,
        n_clusters=n_clusters,
        n_queries=N_QUERIES,
        top=TOP,
        train_seconds=train_seconds,
        exact_qps=exact,
        min_recall=MIN_RECALL,
        min_speedup=MIN_SPEEDUP,
        sweep=sweep,
        best_passing=best,
        repeats=REPEATS,
    )
