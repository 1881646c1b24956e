"""Multi-tenant serving overheads: routing, lazy attach, isolation.

The tenancy layer's claim is that hosting N indexes behind one front
end costs almost nothing on the serving path and cannot let one tenant
ruin another's latency.  Three measurements:

* **routing overhead** — per-tenant QPS when one tenant of a 4-tenant
  registry takes the whole load, vs an identical single-tenant
  service: the registry resolve/pin + quota admit on every request
  must keep >= ``MIN_TENANT_QPS_FRACTION`` of the baseline throughput
  (same model, same batching).  The 4-way round-robin aggregate is
  reported alongside (its batches are 4x thinner, so it is context,
  not an acceptance bound);
* **attach latency** — first query to a cold tenant pays the attach
  (``ServingState.open`` of a store directory: one verifying pass over
  its newest checkpoint, factors and quantizer mapped, and, under
  ``max_resident``, the LRU detach of the coldest peer); the next query
  must drop back to warm-path latency.  Cold and warm medians are
  reported and warm must beat cold;
* **quota isolation** — a hot tenant saturated far past its admission
  share (drawing per-tenant 429s) must leave a cold tenant's p99
  within ``MAX_COLD_P99_RATIO`` of its unloaded baseline (with an
  absolute floor so millisecond-scale noise cannot fail the run).

No ``BENCHMARK.json`` workload hosts more than one tenant, so this
bench is the source for the tenancy numbers.  The three timing bounds
are asserted at full size only, on medians (of ``REPEATS`` runs for
routing and isolation, of the eight cold/warm pairs for attach); a
full-size run records them in ``BENCH_multitenant.json`` at the
repository root.  ``BENCH_SMOKE=1`` measures once on smaller
models and checks only what is not a clock reading: every tenant
re-attaches under the cap, and the flood trips the tenant quota.
"""

import asyncio
import functools
import pathlib
import tempfile
import time

import numpy as np

from conftest import SMOKE, emit, summarize
from obs_export import maybe_export_obs
from repro.core.model import LSIModel
from repro.errors import ServerOverloadError
from repro.server.service import QueryService, ServerConfig
from repro.server.state import ServingState
from repro.sparse.csc import CSCMatrix
from repro.store.durable import DurableIndexStore
from repro.tenancy.registry import IndexRegistry
from repro.text.tdm import TermDocumentMatrix
from repro.text.vocabulary import Vocabulary
from repro.updating.manager import LSIIndexManager

N_DOCS = 4_000 if SMOKE else 16_000
K = 64
M_TERMS = 300
TOP = 10
N_TENANTS = 4
CONCURRENCY = 8
REQUESTS = 160 if SMOKE else 480
REPEATS = 1 if SMOKE else 5
#: Routed single-tenant QPS must keep this fraction of the unrouted
#: baseline — the per-request cost of resolve/pin/quota bookkeeping.
MIN_TENANT_QPS_FRACTION = 0.7
#: Cold-tenant p99 under a saturated hot tenant, relative to unloaded.
MAX_COLD_P99_RATIO = 8.0
COLD_P99_FLOOR_S = 0.25


def _model(seed: int) -> LSIModel:
    """A synthetic serving-scale model straight from random factors."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(f"term{i}" for i in range(M_TERMS))
    vocab.freeze()
    return LSIModel(
        U=rng.standard_normal((M_TERMS, K)),
        s=np.sort(rng.random(K) + 0.5)[::-1],
        V=rng.standard_normal((N_DOCS, K)),
        vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(N_DOCS)],
    )


def _write_store(path: pathlib.Path, model: LSIModel) -> None:
    """``model`` as a store directory, its quantizer trained here —
    before any clock starts.  The factors are synthetic, so the raw
    count matrix kept beside them is all zeros: an attach reads only
    the factors and the quantizer."""
    m, n = model.n_terms, model.n_documents
    empty = CSCMatrix(
        (m, n), np.zeros(n + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64), np.empty(0),
    )
    tdm = TermDocumentMatrix(empty, model.vocabulary, list(model.doc_ids))
    manager = LSIIndexManager.restore(
        tdm=tdm, k=model.k, model=model, base_model=model
    )
    DurableIndexStore.initialize(path, manager).close()


def _queries(n: int, seed: int = 5) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    return [
        [f"term{t}" for t in rng.choice(M_TERMS, size=4, replace=False)]
        for _ in range(n)
    ]


def _registry() -> IndexRegistry:
    reg = IndexRegistry()
    for i in range(N_TENANTS):
        # t0 shares the baseline's seed so the routed-vs-unrouted
        # comparison scores the identical model.
        reg.register(f"t{i}", state=_state(1 + i))
    return reg


def _state(seed: int) -> ServingState:
    """An in-process tenant over ``_model(seed)``, batching a whole wave."""
    return ServingState.for_model(_model(seed), max_batch=CONCURRENCY)


def _config(queue_depth: int | None = None) -> ServerConfig:
    return ServerConfig(queue_depth=queue_depth or 4 * CONCURRENCY * N_TENANTS)


def _qps(source, queries, *, tenant=None, round_robin=False) -> float:
    """Batched QPS over ``queries`` in waves of ``CONCURRENCY``."""

    def _tenant(i: int):
        return f"t{i % N_TENANTS}" if round_robin else tenant

    async def main() -> float:
        service = QueryService(source, _config())
        await service.start()
        await asyncio.gather(
            *(
                service.search(q, top=TOP, tenant=_tenant(i))
                for i, q in enumerate(queries[:CONCURRENCY])
            )
        )
        t0 = time.perf_counter()
        for start in range(0, len(queries), CONCURRENCY):
            wave = queries[start:start + CONCURRENCY]
            await asyncio.gather(
                *(
                    service.search(q, top=TOP, tenant=_tenant(start + i))
                    for i, q in enumerate(wave)
                )
            )
        elapsed = time.perf_counter() - t0
        await service.drain()
        return len(queries) / elapsed

    return asyncio.run(main())


def test_tenant_routing_overhead_bounded(evidence):
    queries = _queries(REQUESTS)
    # Interleaved, so drift of the box lands on all three alike.
    single, routed, aggregate = [], [], []
    for _ in range(REPEATS):
        single.append(_qps(_state(1), queries))
        routed.append(_qps(_registry(), queries, tenant="t0"))
        aggregate.append(_qps(_registry(), queries, round_robin=True))
    single, routed, aggregate = map(summarize, (single, routed, aggregate))
    single_qps, routed_qps = single["median"], routed["median"]
    aggregate_qps = aggregate["median"]
    fraction = routed_qps / single_qps
    emit(
        f"tenant routing overhead (n={N_DOCS}/tenant, k={K}, "
        f"c={CONCURRENCY}, {REQUESTS} requests)",
        [
            f"single-tenant baseline : {single_qps:>8.0f} QPS",
            f"routed, 1 of 4 tenants : {routed_qps:>8.0f} QPS "
            f"({fraction:.2f}x)",
            f"round-robin, 4 tenants : {aggregate_qps:>8.0f} QPS "
            f"(4x thinner batches)",
        ],
    )
    maybe_export_obs(
        "multitenant_routing",
        extra={"routed_fraction": fraction, "single_qps": single_qps},
    )
    if not SMOKE:
        assert fraction >= MIN_TENANT_QPS_FRACTION, (
            f"tenant routing kept only {fraction:.2f}x of baseline QPS, "
            f"need >= {MIN_TENANT_QPS_FRACTION}x"
        )
    evidence.update(
        routing={
            "single_tenant_qps": single,
            "routed_qps": routed,
            "routed_fraction": fraction,
            "min_routed_fraction": MIN_TENANT_QPS_FRACTION,
            "round_robin_qps": aggregate,
            "n_tenants": N_TENANTS,
            "n_docs_per_tenant": N_DOCS,
            "requests": REQUESTS,
        },
        repeats=REPEATS,
    )


def test_attach_cold_vs_warm_latency(evidence):
    query = _queries(2, seed=11)
    with tempfile.TemporaryDirectory() as tmp:
        reg = IndexRegistry(max_resident=2)
        for i in range(N_TENANTS):
            path = pathlib.Path(tmp) / f"t{i}"
            _write_store(path, _model(100 + i))
            reg.register(
                f"t{i}",
                loader=functools.partial(
                    ServingState.open, path, max_batch=CONCURRENCY
                ),
            )

        async def main() -> tuple[list[float], list[float]]:
            service = QueryService(reg, _config())
            await service.start()
            cold, warm = [], []
            # Two sweeps: the second re-attaches tenants the 2-resident
            # LRU cap already evicted, so "cold" includes steady-state
            # detach+attach churn, not just first-boot opens.
            for sweep in range(2):
                for i in range(N_TENANTS):
                    tid = f"t{i}"
                    t0 = time.perf_counter()
                    await service.search(query[0], top=TOP, tenant=tid)
                    cold.append(time.perf_counter() - t0)
                    t0 = time.perf_counter()
                    await service.search(query[1], top=TOP, tenant=tid)
                    warm.append(time.perf_counter() - t0)
            attaches = {
                tid: row["attaches"]
                for tid, row in service.registry.describe().items()
            }
            await service.drain()
            return cold, warm, attaches

        cold, warm, attaches = asyncio.run(main())
    cold_ms = 1e3 * float(np.median(cold))
    warm_ms = 1e3 * float(np.median(warm))
    emit(
        f"lazy attach latency (n={N_DOCS}/tenant, {N_TENANTS} tenants, "
        "max_resident=2, 2 sweeps)",
        [
            f"cold first query (attach) : {cold_ms:>8.2f} ms median",
            f"warm next query           : {warm_ms:>8.2f} ms median",
            f"attaches per tenant       : {sorted(attaches.values())}",
        ],
    )
    # Every tenant re-attached at least once under the cap, and the
    # warm path does not pay the attach cost again.
    assert all(n >= 2 for n in attaches.values()), attaches
    if not SMOKE:
        assert warm_ms <= cold_ms, (warm_ms, cold_ms)
    evidence["attach"] = {
        "cold_ms": summarize([1e3 * t for t in cold]),
        "warm_ms": summarize([1e3 * t for t in warm]),
        "max_resident": 2,
        "attaches": attaches,
    }


def test_cold_tenant_p99_bounded_under_hot_saturation(evidence):
    queries = _queries(64, seed=7)
    probe_n = 40 if SMOKE else 80

    async def main():
        reg = IndexRegistry()
        reg.register("hot", state=_state(31))
        reg.register("cold", state=_state(32))
        service = QueryService(reg, _config(queue_depth=2 * CONCURRENCY))
        await service.start()
        share = service.quotas.share

        async def cold_p99(n: int) -> float:
            lat = []
            for i in range(n):
                t0 = time.perf_counter()
                await service.search(
                    queries[i % len(queries)], top=TOP, tenant="cold"
                )
                lat.append(time.perf_counter() - t0)
            return float(np.percentile(lat, 99))

        baseline = await cold_p99(probe_n)

        stop = [False]
        served = [0]
        rejected = [0]

        async def flood() -> None:
            i = 0
            while not stop[0]:
                try:
                    await service.search(
                        queries[i % len(queries)], top=TOP, tenant="hot"
                    )
                    served[0] += 1
                except ServerOverloadError as exc:
                    if exc.reason == "tenant_quota":
                        rejected[0] += 1
                    await asyncio.sleep(0.001)
                i += 1

        floods = [
            asyncio.ensure_future(flood()) for _ in range(3 * share)
        ]
        await asyncio.sleep(0.05)  # the flood reaches saturation
        saturated = await cold_p99(probe_n)
        stop[0] = True
        await asyncio.gather(*floods)
        await service.drain()
        return baseline, saturated, share, served[0], rejected[0]

    runs = [asyncio.run(main()) for _ in range(REPEATS)]
    baselines, saturateds, shares, serveds, rejecteds = zip(*runs)
    baseline, saturated = np.median(baselines), np.median(saturateds)
    share, served, rejected = shares[0], sum(serveds), min(rejecteds)
    ratio = saturated / baseline
    bound = max(MAX_COLD_P99_RATIO * baseline, COLD_P99_FLOOR_S)
    emit(
        f"quota isolation (share={share}, {3 * share} hot clients, "
        f"{probe_n} cold probes)",
        [
            f"cold p99, unloaded     : {baseline * 1e3:>8.2f} ms",
            f"cold p99, hot saturated: {saturated * 1e3:>8.2f} ms "
            f"({ratio:.2f}x)",
            f"hot flood              : {served} served, at least "
            f"{rejected} per-tenant 429(s) a run",
        ],
    )
    maybe_export_obs(
        "multitenant_isolation",
        extra={"p99_ratio": ratio, "hot_rejected_quota": rejected},
    )
    assert rejected >= 1, "the flood never tripped the tenant quota"
    if not SMOKE:
        assert saturated <= bound, (
            f"cold-tenant p99 {saturated * 1e3:.1f} ms under hot saturation "
            f"vs {baseline * 1e3:.1f} ms unloaded exceeds the bound "
            f"({MAX_COLD_P99_RATIO}x or {COLD_P99_FLOOR_S * 1e3:.0f} ms)"
        )
    evidence["isolation"] = {
        "cold_p99_baseline_ms": summarize([1e3 * t for t in baselines]),
        "cold_p99_saturated_ms": summarize([1e3 * t for t in saturateds]),
        "p99_ratio": ratio,
        "max_p99_ratio": MAX_COLD_P99_RATIO,
        "p99_floor_ms": COLD_P99_FLOOR_S * 1e3,
        "hot_served": served,
        "hot_rejected_quota_min": rejected,
        "share": share,
        "cold_probes": probe_n,
    }
