"""Work-conserving micro-batching: one scan per pile-up, never a timer.

The fast path (PR 1) made *batched* scoring cheap — one GEMM scores a
whole query matrix — but only for callers who arrive pre-batched.  A
server's callers arrive one by one; this module forms the batches, and
it forms them out of waiting that happens anyway: the scheduler takes
the first waiting request, drains whatever else is *already* queued (up
to ``max_batch``, the cap on the ``(q, n)`` score block) and flushes at
once through one :meth:`EpochSnapshot.search` call.  It never holds a
request hoping for company — an idle server adds nothing to a lone
query — and because nothing is read while a flush runs, requests
that arrive while one is in flight pile up behind it and become the next
batch: the batch is exactly what the scorer could not get to yet, so it
grows with load and vanishes without it.  Per-request ``top`` /
``threshold`` are preserved because ranking happens per score row with
the same selection the unbatched engine uses — results are
element-identical to ``LSIRetrieval.search``.

A flush is scored on the event loop itself: a scoring thread would add
two wake-ups and a GIL hand-back to every batch and, on one core, buy
no overlap.  The trade (DESIGN.md) is that a flush holds the loop; the
scheduler yields once after each, so its replies go out before the next
batch forms.  Memory stays bounded because admission caps outstanding
requests before they ever reach this queue.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeadlineExceededError, ReproError
from repro.obs.metrics import registry
from repro.obs.trace_context import TraceContext, current_trace
from repro.obs.tracing import span
from repro.server.admission import AdmissionController
from repro.server.state import (
    EpochSnapshot,
    ServingState,
    check_search_args,
)

__all__ = [
    "SearchRequest",
    "MicroBatcher",
    "BATCH_SIZE_BUCKETS",
]

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
    #: Filled in by the flush that scored (or expired) the request — the
    #: two facts that explain a slow one: how long it sat behind the
    #: flush in flight, and how many requests it was scored with.
    queue_wait_ms: float | None = None
    batch_size: int | None = None


class MicroBatcher:
    """The in-process backend: one :class:`ServingState` and its
    scheduler task that turns a request stream into batches."""

    def __init__(self, state: ServingState, *, max_batch: int = 32):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.state = state
        self.max_batch = max_batch
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
        """Flush every queued request, then :meth:`stop`."""
        await self._queue.join()
        await self.stop()

    async def stop(self) -> None:
        """Cancel the scheduler task (idle after :meth:`drain`: the
        queue is empty)."""
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None

    # ------------------------------------------------------------------ #
    async def search(
        self,
        query,
        *,
        top: int | None = None,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
    ) -> tuple[dict, dict]:
        """One ranked search, answered from a coalesced batch.

        Returns the reply and the scheduler's slow-log evidence: how
        long the request sat behind the flush in flight and how many
        requests it was scored with.  Raises
        :class:`~repro.errors.DeadlineExceededError` when ``timeout_ms``
        runs out before its batch is scored.
        """
        request = SearchRequest(
            query=query,
            top=top,
            threshold=threshold,
            probes=probes,
            exact=exact,
            deadline=AdmissionController.deadline_from(timeout_ms),
            trace=current_trace(),
            future=asyncio.get_running_loop().create_future(),
        )
        self.start()
        self.submit(request)
        payload = await request.future
        return payload, {
            "batch_size": request.batch_size,
            "queue_wait_ms": request.queue_wait_ms,
        }

    async def add(self, texts, doc_ids=None) -> dict:
        """Add documents live; returns the new epoch description.

        Off the loop, so flushes go on while a writer updates: over a
        store on its owner's one thread, after any seal in flight;
        otherwise on the loop's default executor.  Readers never wait —
        in-flight batches finish against their pinned epoch, later
        batches see the new one.
        """
        add = functools.partial(self.state.add_texts, list(texts), doc_ids)
        if self.state.writer is not None:
            return await self.state.writer.run(add)
        return await asyncio.get_running_loop().run_in_executor(None, add)

    def healthz(self) -> dict:
        """The served epoch's block of ``/healthz``."""
        snapshot = self.state.current()
        return {
            "epoch": snapshot.epoch,
            "n_documents": snapshot.n_documents,
            "writable": self.state.writable,
            "ann": snapshot.ann is not None,
        }

    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        while True:
            batch = [await self._queue.get()]
            # Work-conserving: take what has already piled up, never wait
            # for more.  Requests arriving during the flush below are the
            # next iteration's batch.
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            try:
                self._flush(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
            # Yield once per flush: its replies go out before the next
            # batch forms, however deep the queue.
            await asyncio.sleep(0)

    def _flush(self, batch: list[SearchRequest]) -> None:
        """Score one batch against the current epoch and resolve futures."""
        now = time.monotonic()
        live: list[SearchRequest] = []
        for req in batch:
            waited = now - req.enqueued
            req.queue_wait_ms = waited * 1000.0
            registry.observe("server.queue_wait_seconds", waited)
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
        for req in live:
            req.batch_size = len(live)
        snapshot = self.state.current()
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
                responses = self._score_batch(snapshot, live)
        except Exception as exc:  # noqa: BLE001 — fail the batch, not the server
            responses = [exc] * len(live)
        for req, response in zip(live, responses):
            if req.future.done():
                continue
            if isinstance(response, Exception):
                req.future.set_exception(response)
            else:
                req.future.set_result(response)

    def _score_batch(
        self, snapshot: EpochSnapshot, batch: list[SearchRequest]
    ) -> list[dict | ReproError]:
        """Project + score + rank one batch.

        The batch splits by effective probe count: the *exact* group
        (``None``) shares one fp32 pass over all documents (read once,
        in row blocks: :func:`~repro.serving.scan.approx_cosines`), each
        ANN group probes the snapshot's quantizer per query (candidate
        sets differ per query, so there is no cross-query pass to share;
        the grouping bounds the per-probe-set bookkeeping and spans).  Each
        group is one :meth:`EpochSnapshot.search` call, which also owns
        the exact fallback for a snapshot without a quantizer.

        A request whose arguments or projection are invalid gets a
        :class:`ReproError` in its slot and is left out of its group's
        matrix — co-batched requests score as if it had never arrived.
        """
        groups: dict[int | None, list[int]] = {}
        for i, req in enumerate(batch):
            groups.setdefault(None if req.exact else req.probes, []).append(i)
        doc_ids = snapshot.model.doc_ids
        responses: list[dict | ReproError] = [None] * len(batch)
        for probes, candidates in groups.items():
            members, rows = [], []
            for i in candidates:
                req = batch[i]
                try:
                    check_search_args(
                        req.query, req.top, req.threshold,
                        probes=req.probes, exact=req.exact,
                    )
                    rows.append(snapshot.project(req.query))
                    members.append(i)
                except ReproError as exc:
                    responses[i] = exc
            if not members:
                continue
            requests = [batch[i] for i in members]
            Qs = snapshot.scale(np.stack(rows))
            with span(
                "server.score" if probes is None else "server.ann_scan",
                size=len(requests),
                probes=probes,
            ):
                t0 = time.perf_counter()
                results, ann_stats = snapshot.search(
                    Qs,
                    top=[req.top for req in requests],
                    threshold=[req.threshold for req in requests],
                    probes=probes,
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
