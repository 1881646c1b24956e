"""Dynamic micro-batching: coalesce concurrent queries into one GEMM.

The fast path (PR 1) made *batched* scoring cheap — one GEMM scores a
whole query matrix — but only for callers who arrive pre-batched.  A
server's callers arrive one by one; this module creates the batches,
the same dynamic-batching shape inference servers use: the scheduler
takes the first waiting request, then keeps collecting until either
``max_batch`` requests are in hand or ``max_wait_ms`` has elapsed since
the batch opened, and flushes the whole set through one
:meth:`EpochSnapshot.search` call.  Per-request ``top`` /
``threshold`` are preserved because ranking happens per score row with
the same selection the unbatched engine uses — results are
element-identical to ``LSIRetrieval.search``.

The scheduler awaits each flush (the scoring runs on an executor thread
so the event loop stays responsive), which makes batching *adaptive*:
while a GEMM is in flight, arriving requests pile up and form a larger
next batch — exactly the behaviour that keeps throughput high under
load.  Memory stays bounded because admission caps outstanding
requests before they ever reach this queue.
"""

from __future__ import annotations

import asyncio
import contextvars
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeadlineExceededError
from repro.obs.metrics import registry
from repro.obs.trace_context import TraceContext
from repro.obs.tracing import span
from repro.server.state import EpochSnapshot, ServingState

__all__ = ["SearchRequest", "MicroBatcher", "BATCH_SIZE_BUCKETS"]

#: Batch-size histogram boundaries (requests per flush), powers of two.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class SearchRequest:
    """One admitted query waiting for (or being) scored.

    ``probes`` selects the ANN path (probe-bounded scan over that many
    coarse cells); ``None`` means the server default, which may itself
    be ``None`` (exact).  ``exact=True`` is the per-request escape
    hatch that forces the exhaustive GEMM regardless of any default.
    """

    query: object  # str | token sequence
    top: int | None = None
    threshold: float | None = None
    probes: int | None = None
    exact: bool = False
    deadline: float | None = None  # absolute time.monotonic() seconds
    #: The request's trace identity, captured at admission — the batch
    #: span lists every distinct trace it serves under ``trace_ids``.
    trace: TraceContext | None = None
    enqueued: float = field(default_factory=time.monotonic)
    future: asyncio.Future = None


class MicroBatcher:
    """The scheduler task that turns a request stream into batches."""

    def __init__(
        self,
        state: ServingState,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        shards: int = 1,
        workers: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.state = state
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1000.0
        self.shards = shards
        self.workers = workers
        self._queue: asyncio.Queue[SearchRequest] = asyncio.Queue()
        self._task: asyncio.Task | None = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Spawn the scheduler task on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-server-batcher"
            )

    def submit(self, request: SearchRequest) -> None:
        """Enqueue an admitted request (event-loop thread only)."""
        self._queue.put_nowait(request)

    async def drain(self) -> None:
        """Wait until every queued request has been flushed."""
        await self._queue.join()

    async def stop(self) -> None:
        """Cancel the scheduler task (call after :meth:`drain`)."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            window_closes = loop.time() + self.max_wait
            while len(batch) < self.max_batch:
                remaining = window_closes - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
            try:
                await self._flush(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _flush(self, batch: list[SearchRequest]) -> None:
        """Score one batch against the current epoch and resolve futures."""
        now = time.monotonic()
        live: list[SearchRequest] = []
        for req in batch:
            registry.observe("server.queue_wait_seconds", now - req.enqueued)
            if req.deadline is not None and now > req.deadline:
                registry.inc("server.deadline_expired")
                if not req.future.done():
                    req.future.set_exception(
                        DeadlineExceededError(
                            "request spent its deadline waiting in the "
                            "batch queue"
                        )
                    )
            else:
                live.append(req)
        registry.inc("server.batches_total")
        registry.observe(
            "server.batch_size", len(live), boundaries=BATCH_SIZE_BUCKETS
        )
        if not live:
            return
        snapshot = self.state.current()
        loop = asyncio.get_running_loop()
        try:
            with span(
                "server.batch", size=len(live), epoch=snapshot.epoch
            ) as batch_span:
                # One batch serves many requests, hence many traces: the
                # span cannot belong to one trace_id, so it joins each
                # via the trace_ids attribute (see spans_for_trace).
                trace_ids = sorted(
                    {req.trace.trace_id for req in live if req.trace}
                )
                if trace_ids:
                    batch_span.set_attr("trace_ids", trace_ids)
                # Context vars do not cross run_in_executor on their own;
                # copying the context hands the executor thread this batch
                # span as parent, so the scoring spans nest under it.
                call = contextvars.copy_context().run
                responses = await loop.run_in_executor(
                    None, call, self._score_batch, snapshot, live
                )
        except Exception as exc:  # noqa: BLE001 — fail the batch, not the server
            for req in live:
                if not req.future.done():
                    req.future.set_exception(exc)
            return
        for req, response in zip(live, responses):
            if not req.future.done():
                req.future.set_result(response)

    def _score_batch(
        self, snapshot: EpochSnapshot, batch: list[SearchRequest]
    ) -> list[dict]:
        """Project + score + rank one batch (runs on an executor thread).

        The batch splits by effective probe count: the *exact* group
        (``None``) shares one GEMM over all documents, each ANN group
        probes the snapshot's quantizer per query (candidate sets differ
        per query, so there is no cross-query GEMM to share; the
        grouping bounds the per-probe-set bookkeeping and spans).  Each
        group is one :meth:`EpochSnapshot.search` call, which also owns
        the exact fallback for a snapshot without a quantizer.
        """
        groups: dict[int | None, list[int]] = {}
        for i, req in enumerate(batch):
            groups.setdefault(None if req.exact else req.probes, []).append(i)
        doc_ids = snapshot.model.doc_ids
        responses: list[dict] = [None] * len(batch)
        for probes, members in groups.items():
            requests = [batch[i] for i in members]
            t0 = time.perf_counter()
            Qs = snapshot.scale(
                np.stack([snapshot.project(req.query) for req in requests])
            )
            with span(
                "server.score" if probes is None else "server.ann_scan",
                size=len(requests),
                probes=probes,
            ):
                results, ann_stats = snapshot.search(
                    Qs,
                    top=[req.top for req in requests],
                    threshold=[req.threshold for req in requests],
                    probes=probes,
                    shards=self.shards,
                    workers=self.workers,
                )
            if ann_stats is None:
                registry.observe(
                    "server.batch_gemm_seconds", time.perf_counter() - t0
                )
            for n, (i, pairs) in enumerate(zip(members, results)):
                responses[i] = {
                    "epoch": snapshot.epoch,
                    "n_documents": snapshot.n_documents,
                    "results": [[j, score, doc_ids[j]] for j, score in pairs],
                }
                if ann_stats is not None:
                    responses[i]["ann"] = {
                        "probes": probes,
                        "cells_probed": ann_stats[n]["cells_probed"],
                        "candidates": ann_stats[n]["candidates"],
                    }
        return responses
