"""The traced replay: one workload's first requests, stage by stage.

End-to-end numbers always come from the untraced subprocess run.  The
replay takes the first ``REPLAY_REQUESTS`` queries of the same stream
and walks each through the public functions of the layers on its
blocking path, in this process, inside ledger spans.  It is the one
place those calls are timed: a span is named after the per-layer metric
it yields, and that metric is the median self time of the span's calls.
A layer the workload's path never enters has no span and reports 0.

Every request is replayed twice, once with spans recorded and once
without (the order alternates), so the cost of recording is measured
and not assumed.

What the replay cannot see — the event loop, sockets between processes,
the batch window, HTTP and JSON, the GIL shared with a writer — is what
``ledger.replay.unattributed_p50_ms`` reports: the served p50 minus the
median blocking self time found here.
"""

from __future__ import annotations

import contextlib
import pathlib
import socket
import statistics
import time

import numpy as np

from repro.cluster.plan import ShardRange
from repro.cluster.wire import encode_frame, recv_frame
from repro.cluster.worker import ShardWorker
from repro.core.query import project_query
from repro.parallel.sharding import merge_topk
from repro.server.state import ServingState
from repro.serving.kernel import cosine_scores
from repro.serving.topk import ranked_order
from repro.store.mmap_io import open_latest_ann, open_latest_model
from repro.tenancy.quotas import TenantQuotas
from repro.tenancy.registry import IndexRegistry

from ledger.trace import Tracer, blocking_time, self_times
from ledger.workloads import WORKLOADS, Fixtures, Workload

REPLAY_REQUESTS = 300
REQUEST = "ledger.replay.request"  # the root span; its self time is replay glue
PER_SECOND = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _single_node_stages(model, ann, workload: Workload):
    """``repro serve``: pin → admit → project → (probe, gather) → score → rank."""
    state = ServingState.for_model(model, ann=ann)
    registry = IndexRegistry.single(state)
    quotas = TenantQuotas(256)
    quotas.ensure(registry.tenant_ids)
    snapshot = state.current()
    coords, norms = snapshot.coords, snapshot.norms
    n, k = coords.shape

    def run(tracer: Tracer, request: int, tokens: list[str]) -> None:
        with tracer.span(REQUEST, request=request):
            # Pin and admission are timed as taken and given back at once;
            # nothing below depends on holding them.
            with tracer.span("tenancy.registry.pin_us"):
                with registry.pin(None) as (tenant, _state):
                    pass
            with tracer.span("tenancy.quotas.admit_us"):
                quotas.admit(tenant)
                quotas.release(tenant)
            with tracer.span("core.query.project_p50_us"):
                q = project_query(model, tokens) * model.s
            rows, row_norms = coords, norms
            if workload.probes is not None:
                with tracer.span("serving.ann.probe_cells_us"):
                    cells = ann.probe_cells(q, workload.probes)
                with tracer.span("serving.ann.candidates_ms"):
                    candidates = ann.candidates(cells, n_total=n)
                with tracer.span("serving.ann.gather_ms"):
                    rows, row_norms = coords[candidates], norms[candidates]
            # Computed, not measured: what one call must read (coordinates
            # and norms) and write (one score per row).
            moved = rows.shape[0] * (k + 2) * 8
            with tracer.span("serving.kernel.scores_q1_ms", bytes=moved):
                scores = cosine_scores(rows, q, norms=row_norms)[0]
            with tracer.span("serving.topk.ranked_order_top10_ms"):
                ranked_order(scores, top=workload.top)

    return run


def _cluster_stages(model, workload: Workload, router_end, worker_end):
    """``repro cluster serve``: project → per worker (query frame over a
    socket → ``ShardWorker.handle`` → reply frame back) → merge.

    ``router_end`` and ``worker_end`` are the two ends of a socket pair.
    The two shard workers run one after the other, here and when served
    (see ``trace.blocking_time``).
    """
    n = model.n_documents
    workers = [
        ShardWorker(model, ShardRange(i, lo, hi))
        for i, (lo, hi) in enumerate([(0, n // 2), (n // 2, n)])
    ]

    def run(tracer: Tracer, request: int, tokens: list[str]) -> None:
        with tracer.span(REQUEST, request=request):
            with tracer.span("core.query.project_p50_us"):
                Q = np.atleast_2d(project_query(model, tokens) * model.s)
            partial = []
            for worker in workers:
                with tracer.span("cluster.wire.encode_query_us") as span:
                    data = encode_frame(
                        {"op": "score", "queries": Q.tolist(), "epoch": 0,
                         "top": workload.top}
                    )
                if span is not None:
                    span.attrs["bytes"] = len(data)
                router_end.sendall(data)
                with tracer.span("cluster.wire.decode_query_us"):
                    frame = recv_frame(worker_end)
                with tracer.span("cluster.worker.score_ms"):
                    reply = worker.handle(frame)
                with tracer.span("cluster.wire.encode_reply_us") as span:
                    data = encode_frame(reply)
                if span is not None:
                    span.attrs["bytes"] = len(data)
                worker_end.sendall(data)
                with tracer.span("cluster.wire.decode_reply_us"):
                    reply = recv_frame(router_end)
                partial.append([tuple(pair) for pair in reply["results"][0]])
            with tracer.span("cluster.router.merge_us"):
                merge_topk(partial, workload.top)

    return run


def replay(
    name: str,
    fx: Fixtures,
    *,
    units: dict[str, str],
    served_p50_ms: float,
    http_overhead_ms: float | None,
    out_dir: pathlib.Path,
) -> dict[str, float]:
    """Replay ``name``, write its trace, return its per-layer metrics.

    ``units`` maps every per-layer metric to its unit; a span named after
    a metric reports the median self time of its calls in that unit.
    """
    workload = WORKLOADS[name]
    ann = None
    if workload.store == "S":
        data_dir = fx.serving_store().path
        model = open_latest_model(data_dir, mmap=True)
        ann = open_latest_ann(data_dir, mmap=True)
    else:
        # The index the reads of ingest_mixed start on: T as fitted.
        _, model = fx.text_manager()

    queries = fx.queries(workload)[:REPLAY_REQUESTS]
    traced, untraced = Tracer(enabled=True), Tracer(enabled=False)
    with_spans: list[float] = []
    without: list[float] = []
    with contextlib.ExitStack() as stack:
        if "cluster" in workload.front:
            ends = [stack.enter_context(end) for end in socket.socketpair()]
            run = _cluster_stages(model, workload, *ends)
        else:
            run = _single_node_stages(model, ann, workload)
        run(untraced, -1, queries[0])  # page in the mapped coordinates
        for request, tokens in enumerate(queries):
            order = ((traced, with_spans), (untraced, without))
            for tracer, times in order if request % 2 == 0 else order[::-1]:
                t0 = time.perf_counter()
                run(tracer, request, tokens)
                times.append(time.perf_counter() - t0)
    out_dir.mkdir(parents=True, exist_ok=True)
    traced.write_jsonl(out_dir / f"trace-{name}.jsonl")

    layer_spans = [s for s in traced.spans if s.name != REQUEST]
    own = self_times(layer_spans)
    seconds: dict[str, list[float]] = {}
    counted: dict[str, list[int]] = {}
    for record in layer_spans:
        seconds.setdefault(record.name, []).append(own[record.id])
        if "bytes" in record.attrs:
            counted.setdefault(record.name, []).append(record.attrs["bytes"])
    out = {
        span_name: statistics.median(times) * PER_SECOND[units[span_name]]
        for span_name, times in seconds.items()
    }
    moved = {span_name: statistics.median(sizes) for span_name, sizes in counted.items()}
    if "serving.kernel.scores_q1_ms" in moved:
        kernel_s = statistics.median(seconds["serving.kernel.scores_q1_ms"])
        out["serving.kernel.bytes_per_query_mb"] = moved["serving.kernel.scores_q1_ms"] / 1e6
        out["serving.kernel.gb_per_s"] = moved["serving.kernel.scores_q1_ms"] / 1e9 / kernel_s
    if "cluster.wire.encode_query_us" in moved:
        out["cluster.wire.query_frame_bytes"] = moved["cluster.wire.encode_query_us"]
        out["cluster.wire.reply_frame_bytes"] = moved["cluster.wire.encode_reply_us"]

    blocking_ms = statistics.median(blocking_time(layer_spans).values()) * 1000.0
    # Paired by request: the same query both ways, so what differs between
    # queries (how many candidates a probe gathers) cancels.
    recording = statistics.median(on - off for on, off in zip(with_spans, without))
    out["ledger.replay.blocking_p50_ms"] = blocking_ms
    out["ledger.replay.unattributed_p50_ms"] = served_p50_ms - blocking_ms
    out["ledger.trace.overhead_share"] = recording / statistics.median(without)
    if "cluster.worker.score_ms" in seconds and http_overhead_ms is not None:
        # What is left of a served request after both workers' scoring
        # and the HTTP front end: IPC and the asyncio scatter.
        workers_ms = statistics.median(
            blocking_time(
                [s for s in layer_spans if s.name == "cluster.worker.score_ms"]
            ).values()
        ) * 1000.0
        out["cluster.router.overhead_p50_ms"] = (
            served_p50_ms - workers_ms - http_overhead_ms
        )
    return out
