"""The writer's kernel: the fast update against the exact Eq. 10 update.

The paper's own §4 comparison over batch widths: the Vecharynski-Saad
fast update must ingest >= 3x faster than the exact Eq. 10 SVD-update at
a 128-document batch, at equivalent retrieval quality (mean top-10
overlap >= 0.9 against the exact update, new-document queries).  The
sweep runs on a topic-structured corpus with ambient noise — the regime
that makes the exact update pay its O(m p^2) residual factorization
while the topical signal stays inside the retained subspace.  Both
kernels end in one LAPACK SVD of their small core, so the gap is the
residual factorization alone: it opens with the batch width, and at the
writer's own 8-document batch the exact update is the faster one.

In process, no server: what ingest costs beside live reads is the
ledger's ``ingest_mixed`` workload (``BENCHMARK.json``).  A full-size
run (median of ``REPEATS`` timings per width) asserts the speedup floor
and records the sweep as ``BENCH_cluster_ingest.json``; ``BENCH_SMOKE=1``
times each width once and checks the overlap only.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import SMOKE, emit, summarize
from obs_export import maybe_export_obs
from repro.core import fit_lsi_from_tdm
from repro.sparse import from_dense
from repro.text import TermDocumentMatrix, Vocabulary
from repro.updating import update_documents
from repro.updating.fast_update import fast_update_documents

M_TERMS = 1500
N_BASE = 1200
K = 48
TOPICS = 24
SKETCH_RANK = 8
BATCH_WIDTHS = (8, 16, 32, 64, 128)
SPEEDUP_AT = 128  # the batch width the >= 3x floor is enforced at
MIN_SPEEDUP = 3.0
MIN_OVERLAP = 0.9
TOP = 10
REPEATS = 1 if SMOKE else 5


def _topic_corpus(seed: int = 0):
    """A sparse topic-mixture count matrix plus a draw for new batches."""
    rng = np.random.default_rng(seed)
    topics = rng.random((M_TERMS, TOPICS)) * (
        rng.random((M_TERMS, TOPICS)) < 0.05
    )

    def draw(p: int) -> np.ndarray:
        mix = rng.dirichlet(np.ones(TOPICS) * 0.3, size=p).T
        return np.round(topics @ mix * 30.0) + (
            rng.random((M_TERMS, p)) < 0.02
        )

    return draw


def _topk(model, query_vec, top=TOP):
    live = model.s > 1e-10 * model.s[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        qhat = np.where(live, (query_vec @ model.U) / model.s, 0.0)
    coords = model.V * model.s
    scores = coords @ qhat / (
        np.linalg.norm(coords, axis=1) * np.linalg.norm(qhat) + 1e-30
    )
    return np.argsort(-scores, kind="stable")[:top]


def _timed(update) -> tuple[object, dict]:
    """The updated model and the summary of ``REPEATS`` timings, in ms."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        model = update()
        times.append((time.perf_counter() - t0) * 1000.0)
    return model, summarize(times)


def test_fast_update_speedup_and_retrieval_parity(evidence):
    draw = _topic_corpus()
    base = draw(N_BASE)
    base[0, :] += 1.0  # no empty documents
    tdm = TermDocumentMatrix(
        from_dense(base),
        Vocabulary([f"w{i}" for i in range(M_TERMS)]).freeze(),
        [f"D{j}" for j in range(N_BASE)],
    )
    model = fit_lsi_from_tdm(tdm, K, scheme="log_entropy")

    rows = [
        f"{'batch':>6s}  {'fast ms':>8s}  {'exact ms':>9s}  "
        f"{'speedup':>8s}  {'overlap@10':>10s}"
    ]
    curve = {}
    for p in BATCH_WIDTHS:
        counts = draw(p)
        ids = [f"N{j}" for j in range(p)]
        fast_update_documents(model, counts, ids, rank=SKETCH_RANK)  # warm
        fast, t_fast = _timed(
            lambda: fast_update_documents(model, counts, ids, rank=SKETCH_RANK)
        )
        exact, t_exact = _timed(
            lambda: update_documents(model, counts, ids, exact=True)
        )
        # Retrieval parity: new-document queries, top-10 vs the exact
        # update (the quality bar "equivalent" is measured at).
        overlaps = [
            len(
                set(_topk(fast, counts[:, j]).tolist())
                & set(_topk(exact, counts[:, j]).tolist())
            )
            / TOP
            for j in range(0, p, max(1, p // 16))
        ]
        overlap = float(np.mean(overlaps))
        speedup = t_exact["median"] / t_fast["median"]
        curve[str(p)] = {
            "fast_ms": t_fast,
            "exact_ms": t_exact,
            "speedup": speedup,
            "overlap_at_10": overlap,
        }
        rows.append(
            f"{p:>6d}  {t_fast['median']:>8.1f}  {t_exact['median']:>9.1f}  "
            f"{speedup:>7.2f}x  {overlap:>10.2f}"
        )
        assert overlap >= MIN_OVERLAP, (
            f"batch {p}: top-{TOP} overlap {overlap:.2f} < {MIN_OVERLAP}"
        )
    emit(
        f"fast SVD-update vs exact (m={M_TERMS}, n={N_BASE}, k={K}, "
        f"sketch rank {SKETCH_RANK})",
        rows,
    )
    at_scale = curve[str(SPEEDUP_AT)]["speedup"]
    if not SMOKE:
        assert at_scale >= MIN_SPEEDUP, (
            f"fast update {at_scale:.2f}x at batch {SPEEDUP_AT}, "
            f"need >= {MIN_SPEEDUP}x"
        )
    evidence.update(
        kernel=curve,
        speedup_floor_batch=SPEEDUP_AT,
        min_speedup=MIN_SPEEDUP,
        m_terms=M_TERMS,
        n_base=N_BASE,
        k=K,
        sketch_rank=SKETCH_RANK,
        repeats=REPEATS,
    )
    maybe_export_obs(
        "cluster_ingest_kernel",
        extra={"curve": curve, "speedup_at_scale": at_scale},
    )
