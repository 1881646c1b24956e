"""Per-layer measurements the traced replay cannot reach.

The replay (``ledger/replay.py``) times every layer on a request's
blocking path.  What is left is measured here, from outside, through
public functions on the store the workload serves from: on S the way a
server comes up (open, recover), the HTTP front end against the service
called directly, and what batching could buy with more clients than the
workloads have; on T the build path against the paper's cost model, the
store, the write-ahead log and the update kernels.  Metric names are the
repository's module names.

Times are the median of a few calls after one untimed call; counts
(matvecs, flops, bytes) repeat exactly for a given seed.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time

import numpy as np

from repro.core.query import project_query
from repro.linalg.counters import OperatorCounter
from repro.linalg.lanczos import lanczos_svd
from repro.server.service import QueryService
from repro.server.state import ServingState
from repro.serving.kernel import cosine_scores
from repro.serving.topk import ranked_order
from repro.store.durable import DurableIndexStore
from repro.store.mmap_io import open_latest_ann, open_latest_model
from repro.store.recovery import recover_manager
from repro.store.wal import WriteAheadLog
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm, count_vector
from repro.text.tokenizer import tokenize
from repro.updating.cost_model import recompute_flops
from repro.updating.fast_update import fast_update_documents
from repro.updating.folding import fold_in_documents
from repro.updating.svd_update import update_documents
from repro.weighting.schemes import WeightingScheme, apply_weighting

from ledger import fixtures, loadgen
from ledger.servers import Server
from ledger.workloads import WORKLOADS

ANN_PROBES = WORKLOADS["serve_ann"].probes
HTTP_PROBE_REQUESTS = 300
CONCURRENT_CLIENTS = 16
REQUESTS_PER_CLIENT = 12


def median_seconds(call, repeats: int = 9) -> float:
    """Median wall time of ``call()`` after one untimed call."""
    call()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def once_seconds(call) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = call()
    return time.perf_counter() - t0, out


# --------------------------------------------------------------------- #
# S: the serving path
# --------------------------------------------------------------------- #
async def _in_process_service(state: ServingState, queries, top: int) -> dict:
    """``QueryService.search`` without HTTP: one coroutine, then sixteen."""
    service = QueryService(state)
    await service.start()
    try:
        solo = []
        for tokens in queries[:HTTP_PROBE_REQUESTS]:
            t0 = time.perf_counter()
            await service.search(tokens, top=top, probes=ANN_PROBES)
            solo.append((time.perf_counter() - t0) * 1000.0)

        stream = iter(queries[HTTP_PROBE_REQUESTS:])

        async def client() -> None:
            for _ in range(REQUESTS_PER_CLIENT):
                await service.search(next(stream), top=top)

        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(CONCURRENT_CLIENTS)))
        elapsed = time.perf_counter() - t0
    finally:
        await service.drain()
    return {
        "server.service.search_p50_ms": loadgen.percentile(solo, 50),
        "server.batching.qps_c16": CONCURRENT_CLIENTS * REQUESTS_PER_CLIENT / elapsed,
    }


async def _http_one_connection(port: int, requests: list[bytes]) -> float:
    conn = await loadgen.Connection.open(port)
    try:
        latencies = []
        for request in requests:
            t0 = time.perf_counter()
            status, _ = await conn.call(request)
            if status != 200:
                raise RuntimeError(f"overhead probe got status {status}")
            latencies.append((time.perf_counter() - t0) * 1000.0)
    finally:
        await conn.close()
    return loadgen.percentile(latencies, 50)


def measure_serving(fx) -> dict[str, float]:
    store = fx.serving_store()
    sizes = fx.sizes
    out: dict[str, float] = {"serving.ann.train_s": store.ann_train_s}
    queries = fixtures.serving_queries(
        fx.seed + 1, sizes,
        HTTP_PROBE_REQUESTS + CONCURRENT_CLIENTS * REQUESTS_PER_CLIENT,
    )

    # HTTP at one connection vs the service called directly, same stream.
    requests = [
        loadgen.http_request(
            "POST", "/search", {"query": q, "top": 10, "probes": ANN_PROBES}
        )
        for q in queries[:HTTP_PROBE_REQUESTS]
    ]
    with Server(["serve", "--data-dir", str(store.path), "--port", "0"], fx.workdir) as server:
        port = server.wait_ready()
        asyncio.run(_http_one_connection(port, requests[:20]))
        http_p50 = asyncio.run(_http_one_connection(port, requests))

    out["store.mmap_io.open_latest_model_ms"] = 1000.0 * median_seconds(
        lambda: open_latest_model(store.path, mmap=True), repeats=3
    )
    checkpoints, wal_path = DurableIndexStore.paths(store.path)
    out["store.recovery.recover_s"], _ = once_seconds(
        lambda: recover_manager(checkpoints, wal_path)
    )

    model = open_latest_model(store.path, mmap=True)
    ann = open_latest_ann(store.path, mmap=True)
    state = ServingState.for_model(model, ann=ann)
    out.update(asyncio.run(_in_process_service(state, queries, top=10)))
    out["server.http.overhead_p50_ms"] = http_p50 - out["server.service.search_p50_ms"]

    # Kernel shapes the one-query-at-a-time replay does not form: the
    # 2-row GEMM that two waiting requests share on ``serve_exact`` (its
    # batches always hold both connections' requests), the 16-row GEMM
    # sixteen batched clients would share, and a top-100 selection over
    # every row (a shard worker's happens inside ``ShardWorker``).
    snapshot = state.current()
    Q = np.stack([project_query(model, tokens) * model.s for tokens in queries[:16]])
    for rows in (2, 16):
        out[f"serving.kernel.scores_q{rows}_ms"] = 1000.0 * median_seconds(
            lambda: cosine_scores(snapshot.coords, Q[:rows], norms=snapshot.norms),
            repeats=9 if rows == 2 else 5,
        )
    row = cosine_scores(snapshot.coords, Q[0], norms=snapshot.norms)[0]
    out["serving.topk.ranked_order_top100_ms"] = 1000.0 * median_seconds(
        lambda: ranked_order(row, top=100), repeats=15
    )
    return out


# --------------------------------------------------------------------- #
# T: the build and ingest path
# --------------------------------------------------------------------- #
def measure_text(fx) -> dict[str, float]:
    corpus = fx.text_corpus()
    sizes = fx.sizes
    out: dict[str, float] = {}

    # The build path, piece by piece, against the paper's cost model.
    out["text.tdm.build_s"], tdm = once_seconds(
        lambda: build_tdm(corpus.base, ParsingRules(min_doc_freq=1))
    )
    scheme = WeightingScheme.from_name("log_entropy")
    out["weighting.apply_s"], weighted = once_seconds(
        lambda: apply_weighting(tdm.matrix, scheme)
    )
    matrix = weighted.matrix
    x = np.ones(matrix.shape[1])
    out["sparse.ops.nnz"] = matrix.nnz
    out["sparse.ops.spmv_ms"] = 1000.0 * median_seconds(lambda: matrix.matvec(x))
    operator = OperatorCounter(matrix)
    out["linalg.lanczos.svd_s"], _ = once_seconds(
        lambda: lanczos_svd(operator, sizes.t_k, seed=0)
    )
    out["linalg.lanczos.matvecs"] = operator.matvecs + operator.rmatvecs
    out["linalg.lanczos.gram_products"] = operator.gram_products
    out["linalg.lanczos.flops_counted"] = operator.flops.total
    predicted = recompute_flops(matrix.nnz, sizes.t_k)
    out["updating.cost_model.recompute_flops_predicted"] = predicted
    # Table 7's prediction over what the operator counted (base: counted).
    out["linalg.lanczos.flops_ratio"] = predicted / operator.flops.total

    # The store and the ingest kernels on the fitted index.
    manager, model = fx.text_manager()
    data_dir = fx.workdir / "T-layers"
    out["store.durable.initialize_s"], store = once_seconds(
        lambda: DurableIndexStore.initialize(data_dir, manager)
    )
    try:
        out["store.checkpoint.write_s"], path = once_seconds(store.checkpoint)
        out["store.checkpoint.bytes"] = sum(
            p.stat().st_size for p in path.iterdir() if p.is_file()
        )
    finally:
        store.close(flush=False)
        shutil.rmtree(data_dir)

    vocabulary = model.vocabulary
    blocks = [
        np.stack([count_vector(tokenize(t), vocabulary) for t in texts], axis=1)
        for texts in corpus.batches
    ]
    ids = [[f"N{b}-{i}" for i in range(block.shape[1])] for b, block in enumerate(blocks)]

    wal = WriteAheadLog(fx.workdir / "layers.wal")
    try:
        append_us = []
        for block, names in zip(blocks, ids):
            t0 = time.perf_counter()
            wal.append("add_counts", {"counts": block, "doc_ids": names})
            append_us.append((time.perf_counter() - t0) * 1e6)
        out["store.wal.append_p50_us"] = loadgen.percentile(append_us, 50)
        out["store.wal.bytes_per_doc"] = wal.size_bytes / sizes.t_added
    finally:
        wal.close()
        wal.path.unlink()

    few = list(zip(blocks, ids))[:5]
    out["updating.fast_update.batch8_ms"] = 1000.0 * statistics.median(
        once_seconds(lambda: fast_update_documents(model, block, names))[0]
        for block, names in few
    )
    out["updating.folding.batch8_ms"] = 1000.0 * statistics.median(
        once_seconds(lambda: fold_in_documents(model, block, names))[0]
        for block, names in few
    )
    # Eq. 10 on the first eight batches.  The whole 10 %-distortion block
    # takes several times longer than refitting (the update planner picks
    # the recompute for it in the served run), too long for every run.
    pending = np.hstack(blocks[:8])
    out["updating.svd_update.consolidate_s"], _ = once_seconds(
        lambda: update_documents(
            model, pending, [f"P{i}" for i in range(pending.shape[1])], exact=True
        )
    )
    # Last: add_texts moves the manager on (no WAL, no HTTP).
    out["updating.manager.add_texts_batch8_ms"] = 1000.0 * statistics.median(
        once_seconds(lambda: manager.add_texts(texts))[0]
        for texts in corpus.batches[:5]
    )
    return out


def measure_layers(fx, store: str) -> dict[str, float]:
    """The measurements on ``store`` ("S" or "T"); a workload serving
    from the other store never enters these layers and reports 0."""
    return measure_serving(fx) if store == "S" else measure_text(fx)
