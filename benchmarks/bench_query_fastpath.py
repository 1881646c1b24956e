"""Single-query serving throughput: seed path vs the fast path.

The seed path recomputed ``V_k Σ_k`` and every row norm on *every*
query, ran a full ``argsort`` over all n documents, and built the
complete n-pair Python list before applying ``top``.  The fast path
derives the scaled coordinates and norms once per model
(:func:`repro.serving.scaled_documents`), selects top-k with
``argpartition``, and converts only the k survivors to pairs.

Acceptance: ≥ 3× single-query search throughput at n≈10⁴ documents,
k≈100, with rankings element-identical to the seed path.  The bench has
one size; under ``BENCH_SMOKE=1`` (CI) only the rankings are asserted.

One more row times the ranking the serving tiers actually report —
:meth:`EpochSnapshot.search`, an fp32 pass over unit rows plus fp64
rescoring of the candidates (:mod:`repro.serving.scan`) — against
``ranked_pairs`` of the full-width fp64 ``score_batch`` row, its
reference: indices identical and scores within 1e-12 on every query, at
any size.

A second test times Eq. 6 itself against the vocabulary size m: the
projection gathers the query's rows of ``U_k``, so its median must stay
within 2× across m = 2 000 / 20 000 / 100 000 (asserted at full size;
under ``BENCH_SMOKE=1`` only its agreement with the dense
``(m,)·(m, k)`` form is).
"""

import time

import numpy as np

from conftest import SMOKE, emit
from obs_export import maybe_export_obs
from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.obs.metrics import registry
from repro.obs.tracing import span, tracing_enabled
from repro.retrieval.engine import LSIRetrieval
from repro.serving.index import scaled_documents
from repro.serving.snapshot import EpochSnapshot
from repro.serving.topk import ranked_pairs
from repro.text.tdm import count_vector
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import WeightingScheme

N_DOCS = 10_000
K = 100
TOP = 10
N_QUERIES = 60
MIN_SPEEDUP = 3.0

#: Observability budget: disabled tracing may cost at most this fraction
#: of a fast-path query (ISSUE acceptance criterion).
MAX_OVERHEAD = 0.02
#: Spans a single query can cross on the serving path (search + project
#: + sharded wrapper + per-shard child) — the conservative multiplier.
SPANS_PER_QUERY = 4

#: Eq. 6 projection timing: vocabulary sizes (the ledger's S, then
#: toward the paper's ~90 000-term TREC shape), rank, terms per query,
#: and how far apart the slowest and fastest median may be.
PROJECTION_M = (2_000, 20_000, 100_000)
PROJECTION_K = 64
QUERY_TERMS = 6
MAX_FLAT_RATIO = 2.0


def _serving_model(seed: int = 123) -> LSIModel:
    """A synthetic k=100 model over 10⁴ documents, built directly from
    random factors — fitting a real SVD at this size is not what this
    bench measures."""
    rng = np.random.default_rng(seed)
    m = 500
    vocab = Vocabulary(f"term{i}" for i in range(m))
    vocab.freeze()
    return LSIModel(
        U=rng.standard_normal((m, K)),
        s=np.sort(rng.random(K) + 0.5)[::-1],
        V=rng.standard_normal((N_DOCS, K)),
        vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(N_DOCS)],
    )


def _seed_search(model: LSIModel, qhat: np.ndarray, top: int):
    """The seed query path, verbatim in shape: recompute coordinates and
    norms per query, full stable argsort, full n-pair list, then slice."""
    docs = model.V * model.s
    target = qhat * model.s
    norms = np.sqrt(np.sum(docs * docs, axis=1))
    tn = np.sqrt(np.dot(target, target))
    denom = norms * tn
    cos = np.zeros(model.n_documents)
    ok = denom > 0
    cos[ok] = (docs[ok] @ target) / denom[ok]
    order = np.argsort(-cos, kind="stable")
    results = [(int(j), float(cos[j])) for j in order]
    return results[:top]


def _fast_search(engine: LSIRetrieval, qhat: np.ndarray, top: int):
    """The engine's search for an already-projected query vector."""
    return ranked_pairs(engine.scores_for_vector(qhat), top=top)


def test_query_fastpath_speedup():
    model = _serving_model()
    rng = np.random.default_rng(7)
    qhats = rng.standard_normal((N_QUERIES, K))

    engine = LSIRetrieval(model)
    scaled_documents(model)  # build outside the timed region
    registry.reset("serving.")

    # Warm-up + byte-identical ranking check on every query.
    for q in qhats:
        fast = _fast_search(engine, q, TOP)
        seed = _seed_search(model, q, TOP)
        assert [j for j, _ in fast] == [j for j, _ in seed]
        assert [c for _, c in fast] == [c for _, c in seed]

    t0 = time.perf_counter()
    for q in qhats:
        _fast_search(engine, q, TOP)
    fast_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    for q in qhats:
        _seed_search(model, q, TOP)
    seed_time = time.perf_counter() - t0

    # The ranked exact path against its full-width fp64 reference.
    snapshot = EpochSnapshot(0, model)
    Qs = snapshot.scale(qhats)
    for q, qs in zip(qhats, Qs):
        ranked = snapshot.search(qs, top=TOP)[0][0]
        reference = ranked_pairs(snapshot.score_batch(q)[0], top=TOP)
        assert [j for j, _ in ranked] == [j for j, _ in reference]
        assert all(
            abs(a - b) <= 1e-12
            for (_, a), (_, b) in zip(ranked, reference)
        )
    t0 = time.perf_counter()
    for qs in Qs:
        snapshot.search(qs, top=TOP)
    ranked_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    for q in qhats:
        ranked_pairs(snapshot.score_batch(q)[0], top=TOP)
    reference_time = time.perf_counter() - t0
    rescored = registry.histogram("serving.rescore_candidates")

    speedup = seed_time / fast_time
    seconds = registry.histogram_sums("serving.")
    emit(
        "query-serving fast path",
        [
            f"{N_QUERIES} queries × {N_DOCS} documents, k={K}, top={TOP}",
            f"seed path (recompute + full argsort):  "
            f"{seed_time / N_QUERIES * 1e3:8.3f} ms/query",
            f"fast path (memoized V·Σ + argpartition): "
            f"{fast_time / N_QUERIES * 1e3:8.3f} ms/query",
            f"speedup: {speedup:.1f}x   (floor {MIN_SPEEDUP:.0f}x)",
            f"ranked exact path (fp32 scan + fp64 rescoring): "
            f"{ranked_time / N_QUERIES * 1e3:8.3f} ms/query vs "
            f"{reference_time / N_QUERIES * 1e3:.3f} for ranked_pairs("
            f"score_batch); {rescored.sum / rescored.count:.1f} rows "
            f"rescored per query; indices identical, scores within 1e-12",
            f"counters: queries_served="
            f"{registry.counter('serving.queries_served')}, "
            f"gemm={seconds.get('serving.gemm_seconds', 0.0):.3f}s, "
            f"topk={seconds.get('serving.topk_seconds', 0.0):.3f}s",
            "rankings byte-identical to seed on all queries",
        ],
    )
    maybe_export_obs(
        "query_fastpath",
        extra={
            "speedup": speedup,
            "seed_ms_per_query": seed_time / N_QUERIES * 1e3,
            "fast_ms_per_query": fast_time / N_QUERIES * 1e3,
            "ranked_ms_per_query": ranked_time / N_QUERIES * 1e3,
            "reference_ms_per_query": reference_time / N_QUERIES * 1e3,
            "n_docs": N_DOCS,
            "k": K,
            "top": TOP,
        },
    )
    if not SMOKE:
        assert speedup >= MIN_SPEEDUP, f"fast path only {speedup:.2f}x"


def test_disabled_tracing_overhead():
    """Tracing off (the default) must cost < 2% of a fast-path query.

    Measures the disabled ``span`` enter/exit directly — a single global
    bool check — then compares SPANS_PER_QUERY of that cost against the
    measured per-query fast-path latency.
    """
    assert not tracing_enabled(), "bench must run with tracing disabled"
    model = _serving_model()
    rng = np.random.default_rng(7)
    qhats = rng.standard_normal((N_QUERIES, K))
    engine = LSIRetrieval(model)

    for q in qhats:  # warm-up
        _fast_search(engine, q, TOP)
    t0 = time.perf_counter()
    for q in qhats:
        _fast_search(engine, q, TOP)
    per_query = (time.perf_counter() - t0) / N_QUERIES

    reps = 200_000
    t0 = time.perf_counter()
    for _ in range(reps):
        with span("lsi.overhead.probe", top=TOP):
            pass
    per_span = (time.perf_counter() - t0) / reps

    overhead = SPANS_PER_QUERY * per_span / per_query
    emit(
        "disabled-tracing overhead",
        [
            f"disabled span enter/exit: {per_span * 1e9:8.1f} ns",
            f"fast-path query:          {per_query * 1e6:8.1f} us",
            f"overhead at {SPANS_PER_QUERY} spans/query: "
            f"{overhead * 100:.4f}%   (budget {MAX_OVERHEAD * 100:.0f}%)",
        ],
    )
    if not SMOKE:
        assert overhead < MAX_OVERHEAD, (
            f"disabled tracing costs {overhead * 100:.3f}% per query, "
            f"budget is {MAX_OVERHEAD * 100:.0f}%"
        )


def _vocabulary_model(m: int, rng) -> LSIModel:
    """A log×entropy-weighted k=64 model over m terms (random factors:
    the projection's cost, not its meaning, is measured)."""
    return LSIModel(
        U=rng.standard_normal((m, PROJECTION_K)),
        s=np.sort(rng.random(PROJECTION_K) + 0.5)[::-1],
        V=rng.standard_normal((4, PROJECTION_K)),
        vocabulary=Vocabulary(f"t{i}" for i in range(m)).freeze(),
        doc_ids=[f"D{j}" for j in range(4)],
        scheme=WeightingScheme("log", "entropy"),
        global_weights=rng.random(m) + 0.5,
    )


def _dense_projection(model: LSIModel, tokens) -> np.ndarray:
    """Eq. 6 the dense way: a length-m weighted vector times all of U."""
    counts = count_vector(tokens, model.vocabulary)
    return (np.log2(counts + 1.0) * model.global_weights @ model.U) / model.s


def _seconds(fn, arg) -> float:
    t0 = time.perf_counter()
    fn(arg)
    return time.perf_counter() - t0


def test_projection_flat_in_vocabulary():
    """Eq. 6 reads only the query's rows of U_k: its cost is flat in m."""
    rng = np.random.default_rng(11)
    n_queries, n_dense = (20, 5) if SMOKE else (3_000, 100)
    lines = [
        f"{QUERY_TERMS}-term log×entropy queries, k={PROJECTION_K}, "
        f"median of {n_queries} (dense form: of {n_dense})",
        f"{'m':>8}  {'project_query':>14}  {'dense (m,)·(m,k)':>17}",
    ]
    models = [_vocabulary_model(m, rng) for m in PROJECTION_M]
    queries = [
        [
            [f"t{i}" for i in rng.integers(0, m, QUERY_TERMS)]
            for _ in range(n_queries)
        ]
        for m in PROJECTION_M
    ]
    for model, qs in zip(models, queries):
        for q in qs[:n_dense]:
            np.testing.assert_allclose(
                project_query(model, q), _dense_projection(model, q),
                rtol=1e-12, atol=1e-12,
            )
    # Round-robin over the sizes, so a slow spell on a shared machine
    # lands on every m alike instead of on whichever ran then.
    gathered = np.zeros((len(models), n_queries))
    dense = np.zeros((len(models), n_dense))
    for i in range(n_queries):
        for j, model in enumerate(models):
            gathered[j, i] = _seconds(
                lambda q: project_query(model, q), queries[j][i]
            )
            if i < n_dense:
                dense[j, i] = _seconds(
                    lambda q: _dense_projection(model, q), queries[j][i]
                )
    medians = np.median(gathered, axis=1)
    for m, g, d in zip(PROJECTION_M, medians, np.median(dense, axis=1)):
        lines.append(f"{m:>8,}  {g * 1e6:>11.1f} µs  {d * 1e6:>14.1f} µs")
    ratio = max(medians) / min(medians)
    lines.append(
        f"slowest / fastest project_query median: {ratio:.2f}x "
        f"(bound {MAX_FLAT_RATIO:.0f}x)"
    )
    emit("Eq. 6 projection time against vocabulary size", lines)
    if not SMOKE:
        assert ratio <= MAX_FLAT_RATIO, (
            f"projection grows with m: {ratio:.2f}x across {PROJECTION_M}"
        )
