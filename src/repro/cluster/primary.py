"""The primary writer: the cluster's single ingest process.

Exactly one writer owns the durable store's ``flock`` (the workers are
lock-free checkpoint consumers), so the cluster's write path is the
store's write path: every ``/add`` batch is normalized to raw counts,
appended + fsynced to the write-ahead log, and applied to the live
:class:`~repro.updating.manager.LSIIndexManager` — acknowledged means
WAL-fsynced, and a SIGKILL mid-stream recovers bit-identically on
restart (the store's standing contract).  The ingest kernel is
the Vecharynski-Saad fast update (:mod:`repro.updating.fast_update`):
near-fold-in cost per batch, but the factors stay orthonormal, so
sustained ingest does not accumulate the §4.3 drift folding-in would;
consolidation still runs the exact SVD-update on the pristine base.

Propagation is pull-free: on the seal policy (records or age), the
writer seals a format-v2 checkpoint (ANN quantizer retrained inside),
derives the next :class:`~repro.cluster.plan.ShardPlan` from the
:class:`~repro.store.durable.SealInfo`, points the supervisor's future
restarts at it, broadcasts a ``bump`` control frame to every live
worker, and only after the acks publishes the new
:class:`~repro.cluster.epochs.EpochHandle` to the front end.  That
ordering is the zero-drop guarantee: a query that snapshotted the old
handle keeps scattering with the old epoch, which every worker still
holds as *previous*; queries born after the publish carry the new
epoch, which every acked worker already serves.  Laggards (a worker
that timed out its bump) are re-bumped each poll and their rows simply
degrade that epoch's answers to ``partial`` in the interim.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import pathlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from repro.cluster.epochs import EpochHandle
from repro.errors import ClusterError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.store.checkpointer import CheckpointPolicy
from repro.store.durable import DurableIndexStore, SealInfo

__all__ = ["WriterConfig", "PrimaryWriter"]

#: GIL switch interval while ingest compute co-resides with the scatter
#: loop.  CPython's 5 ms default lets one store operation monopolize the
#: interpreter for 5 ms at a stretch — directly visible as query-latency
#: spikes on small machines.  1 ms keeps the scatter path responsive at
#: negligible throughput cost for the batch-sized kernels the writer runs.
_WRITER_SWITCH_INTERVAL_S = 0.001

#: Niceness delta for the writer's compute thread (Linux schedules
#: niceness per thread).  Ingest is throughput work; the scatter loop
#: and the shard workers are latency work — same trade RocksDB makes for
#: its compaction threads.
_WRITER_NICENESS = 5

#: Seal-policy poll cadence, seconds (also the laggard re-bump cadence).
POLL_SECONDS = 0.5
#: Per-batch ingest kernel the writer runs: the Vecharynski-Saad fast
#: update, at residual sketch rank :data:`FAST_UPDATE_RANK`.
INGEST_METHOD = "fast-update"
FAST_UPDATE_RANK = 8


def _deprioritize_current_thread() -> None:
    """Best-effort: lower the calling thread's scheduling priority.

    Linux schedules niceness per thread (threads are LWPs), so passing
    the native thread id to ``setpriority`` nices just this thread, not
    the process — the scatter loop keeps its priority.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.setpriority(
            os.PRIO_PROCESS, threading.get_native_id(), _WRITER_NICENESS
        )


@dataclass(frozen=True)
class WriterConfig:
    """The ingest tier's seal policy (``--seal-every`` / ``--seal-interval``)."""

    #: Seal once this many WAL records are dirty; ``None`` disables.
    seal_every_records: int | None = 64
    #: Seal dirty state older than this many seconds; ``None`` disables.
    seal_interval_s: float | None = 15.0


class PrimaryWriter:
    """Owns the store; seals, bumps, and publishes epochs.

    Constructing the writer opens (and therefore locks) the store and
    immediately seals — ``reason="recover"`` when the WAL held records
    past the last checkpoint (so the cluster boots serving *every*
    acknowledged document), ``reason="adopt"`` otherwise (so the first
    served checkpoint records this writer's ingest configuration, which
    WAL replay determinism depends on).  :meth:`start` then binds the
    serving side and runs the seal loop on its event loop.
    """

    def __init__(
        self,
        data_dir: pathlib.Path,
        config: WriterConfig | None = None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.config = config or WriterConfig()
        self.store = DurableIndexStore.open(self.data_dir)
        manager = self.store.manager
        recovered_dirty = self.store.dirty_records
        reconfigured = (
            manager.ingest_method != INGEST_METHOD
            or manager.fast_update_rank != FAST_UPDATE_RANK
        )
        # Reconfigure *after* recovery replayed the WAL under the
        # checkpoint's persisted settings — changing the kernel mid-log
        # would break bit-identical replay.  The immediate seal below
        # stamps the new settings into the manifest before any new
        # record can land under them.
        manager.ingest_method = INGEST_METHOD
        manager.fast_update_rank = FAST_UPDATE_RANK
        if recovered_dirty > 0:
            self.store.seal(reason="recover")
        elif reconfigured or self.store.last_seal is None:
            self.store.seal(reason="adopt")
        self.seals_total = 0
        self.last_seal_unix = time.time()
        self._seal_policy = CheckpointPolicy(
            self.config.seal_every_records,
            self.config.seal_interval_s,
            on_consolidate=False,
        )
        self._service = None
        self._task: asyncio.Task | None = None
        #: A sealed handle whose bump did not reach quorum yet: the old
        #: epoch keeps serving, and the poll loop retries the publish.
        self._pending_handle: EpochHandle | None = None
        self._stopped = False
        self._seal_guard = asyncio.Lock()
        # All store compute runs on this one de-prioritized thread: the
        # store is single-writer (one thread serializes adds and seals
        # structurally), and on small machines the scatter loop must
        # win the CPU whenever it is runnable — ingest is throughput
        # work, queries are latency work.
        self._pool = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="repro-writer",
            initializer=_deprioritize_current_thread,
        )
        self._prior_switch_interval: float | None = None
        self._publish_writer_gauges()

    # ------------------------------------------------------------------ #
    @property
    def sealed_epoch(self) -> int:
        """Epoch of the newest seal (== its WAL LSN)."""
        seal = self.store.last_seal
        return seal.epoch if seal is not None else 0

    @property
    def wal_lsn(self) -> int:
        """Last acknowledged WAL LSN — everything durable so far."""
        return self.store.wal.last_lsn

    def lag_records(self, serving_epoch: int) -> int:
        """Records acknowledged but not yet served at ``serving_epoch``."""
        return max(0, self.wal_lsn - int(serving_epoch))

    def describe(self, serving_epoch: int) -> dict:
        """The healthz/status ``writer`` block."""
        manager = self.store.manager
        return {
            "enabled": True,
            "wal_lsn": self.wal_lsn,
            "sealed_epoch": self.sealed_epoch,
            "lag_records": self.lag_records(serving_epoch),
            "pending_documents": manager.pending,
            "n_documents": manager.n_documents,
            "ingest_method": manager.ingest_method,
            "fast_update_rank": manager.fast_update_rank,
            "seals_total": self.seals_total,
            "last_seal_unix": self.last_seal_unix,
        }

    def _publish_writer_gauges(self) -> None:
        registry.set_gauge("cluster.writer.wal_lsn", self.wal_lsn)
        registry.set_gauge("cluster.writer.sealed_epoch", self.sealed_epoch)
        registry.set_gauge(
            "cluster.writer.pending_documents", self.store.manager.pending
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, service) -> None:
        """Bind the serving side and start the seal loop (idempotent)."""
        self._service = service
        if self._prior_switch_interval is None:
            current = sys.getswitchinterval()
            if current > _WRITER_SWITCH_INTERVAL_S:
                self._prior_switch_interval = current
                sys.setswitchinterval(_WRITER_SWITCH_INTERVAL_S)
        if self._task is None or self._task.done():
            self._stopped = False
            self._task = asyncio.ensure_future(self._seal_loop())

    async def stop(self, *, flush: bool = True) -> None:
        """Stop sealing and close the store (final flush checkpoint)."""
        self._stopped = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        loop = asyncio.get_event_loop()
        await loop.run_in_executor(
            self._pool, lambda: self.store.close(flush=flush)
        )
        self._pool.shutdown(wait=True)
        if self._prior_switch_interval is not None:
            sys.setswitchinterval(self._prior_switch_interval)
            self._prior_switch_interval = None

    # ------------------------------------------------------------------ #
    # the write path
    # ------------------------------------------------------------------ #
    async def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> dict:
        """WAL-logged ingest; returns once the batch is durable.

        Runs the blocking store write on the writer's de-prioritized
        compute thread so the event loop keeps scattering queries (and
        concurrent batches serialize structurally — the pool has one
        thread).  The response's ``epoch`` is the
        WAL LSN that acknowledged the batch — queries see the documents
        after the next seal/bump, which ``lag_records`` tracks.
        """
        loop = asyncio.get_event_loop()
        texts = list(texts)
        ids = None if doc_ids is None else list(doc_ids)
        t0 = time.perf_counter()
        event = await loop.run_in_executor(
            self._pool, lambda: self.store.add_texts(texts, ids)
        )
        registry.observe(
            "cluster.writer.ingest_seconds", time.perf_counter() - t0
        )
        registry.inc("cluster.writer.documents_total", len(texts))
        self._publish_writer_gauges()
        return {
            "epoch": self.wal_lsn,
            "n_documents": self.store.manager.n_documents,
            "action": event.action,
            "reason": event.reason,
            "durable": True,
        }

    # ------------------------------------------------------------------ #
    # seal → bump → publish
    # ------------------------------------------------------------------ #
    def _seal_due(self) -> str | None:
        """The seal trigger that fired, or ``None``: the checkpointer's
        policy, evaluated writer-side so the bump can follow the seal
        synchronously."""
        return self._seal_policy.due(
            dirty_records=self.store.dirty_records,
            seconds_since=time.time() - self.last_seal_unix,
            consolidated=False,
        )

    async def seal_now(self, reason: str = "manual") -> EpochHandle:
        """Seal + bump + publish immediately (flush/maintenance path)."""
        async with self._seal_guard:
            return await self._seal_and_bump(reason)

    async def maybe_seal(self) -> EpochHandle | None:
        """Evaluate the policy once; seal/bump/publish when due."""
        async with self._seal_guard:
            reason = self._seal_due()
            if reason is None:
                return None
            return await self._seal_and_bump(reason)

    async def _seal_and_bump(self, reason: str) -> EpochHandle:
        service = self._service
        if service is None:
            raise ClusterError("primary writer is not bound to a service")
        loop = asyncio.get_event_loop()
        with span("cluster.writer.seal", reason=reason):
            t0 = time.perf_counter()
            seal: SealInfo = await loop.run_in_executor(
                self._pool, lambda: self.store.seal(reason=reason)
            )
            registry.observe(
                "cluster.writer.seal_seconds", time.perf_counter() - t0
            )
        self.seals_total += 1
        self.last_seal_unix = time.time()
        registry.inc("cluster.writer.seals_total")
        handle = EpochHandle.open(
            self.data_dir,
            service.plan.n_workers,
            replication=service.plan.replication,
            checkpoint=seal.name,
        )
        # Ordering is the zero-drop contract (module docstring): future
        # restarts first, then the workers, then — only once a quorum of
        # every range's replicas acked — the front end's handle.  A bump
        # that misses quorum parks the handle and the poll loop retries:
        # the old epoch keeps serving (every worker retains it) and no
        # write is lost — the WAL already holds the records the next
        # successful publish will serve.
        published = await service.propagate_handle(handle)
        self._pending_handle = None if published else handle
        self._publish_writer_gauges()
        return handle

    async def _rebump_laggards(self) -> None:
        """Re-broadcast the current plan to workers behind the epoch.

        Retries a quorum-parked handle first — once enough replicas
        remap, the publish completes here — then re-bumps any worker
        that is up but behind the *published* epoch (its rows would
        otherwise fail over to siblings until it catches up).
        """
        service = self._service
        if service is None:
            return
        pending = self._pending_handle
        if pending is not None and pending.epoch > service.plan.epoch:
            if await service.propagate_handle(pending):
                self._pending_handle = None
            return
        plan = service.plan
        behind = [
            row["worker"]
            for row in service.supervisor.describe()
            if row["state"] == "up" and row["epoch"] != plan.epoch
        ]
        if not behind:
            return
        acks = await service.router.broadcast_bump(plan)
        for wid, epoch in acks.items():
            service.supervisor.note_epoch(wid, epoch)

    async def _seal_loop(self) -> None:
        while not self._stopped:
            await asyncio.sleep(POLL_SECONDS)
            if self._stopped:
                return
            try:
                await self.maybe_seal()
                await self._rebump_laggards()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — sealing must retry, not die
                registry.inc("cluster.writer.seal_errors_total")
