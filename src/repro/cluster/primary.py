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

Sealing is the store's one :class:`~repro.store.sealing.SealLoop`, the
same loop ``repro serve --data-dir`` runs; all store compute — every
``/add`` and every seal — runs on its one de-prioritised thread.  What
the writer adds is the fleet's half, as the loop's per-tick hook.
Propagation is pull-free: after a seal (format-v2 checkpoint, ANN
quantizer retrained inside) the hook derives the next
:class:`~repro.cluster.plan.ShardPlan` from the
:class:`~repro.store.durable.SealInfo`, points the supervisor's future
restarts at it, broadcasts a ``bump`` control frame to every live
worker, and only after the acks publishes the new
:class:`~repro.cluster.epochs.EpochHandle` to the front end.  That
ordering is the zero-drop guarantee: a query that snapshotted the old
handle keeps scattering with the old epoch, which every worker still
holds as *previous*; queries born after the publish carry the new
epoch, which every acked worker already serves.  Laggards (a worker
that timed out its bump) are re-bumped on every tick and their rows
simply degrade that epoch's answers to ``partial`` in the interim.
"""

from __future__ import annotations

import pathlib
import sys
import time
from typing import Sequence

from repro.cluster.epochs import EpochHandle
from repro.obs.metrics import registry
from repro.store.durable import DurableIndexStore, SealInfo
from repro.store.sealing import CheckpointPolicy, SealLoop

__all__ = ["PrimaryWriter"]

#: GIL switch interval while ingest compute co-resides with the scatter
#: loop.  CPython's 5 ms default lets one store operation monopolize the
#: interpreter for 5 ms at a stretch — directly visible as query-latency
#: spikes on small machines.  1 ms keeps the scatter path responsive at
#: negligible throughput cost for the batch-sized kernels the writer runs.
_WRITER_SWITCH_INTERVAL_S = 0.001

#: Per-batch ingest kernel the writer runs: the Vecharynski-Saad fast
#: update, at residual sketch rank :data:`FAST_UPDATE_RANK`.
INGEST_METHOD = "fast-update"
FAST_UPDATE_RANK = 8


class PrimaryWriter:
    """Owns the store; seals, bumps, and publishes epochs.

    Constructing the writer opens (and therefore locks) the store and
    immediately seals — ``reason="recover"`` when the WAL held records
    past the last checkpoint (so the cluster boots serving *every*
    acknowledged document), ``reason="adopt"`` otherwise (so the first
    served checkpoint records this writer's ingest configuration, which
    WAL replay determinism depends on).  :meth:`start` then binds the
    serving side and starts the store's seal loop under ``policy``.
    """

    def __init__(self, data_dir: pathlib.Path, policy: CheckpointPolicy):
        self.data_dir = pathlib.Path(data_dir)
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
        self.seal_loop = SealLoop(
            self.store, policy, after_tick=self._after_tick
        )
        self._service = None
        #: A sealed handle whose bump did not reach quorum yet: the old
        #: epoch keeps serving, and the next tick retries the publish.
        self._pending_handle: EpochHandle | None = None
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

    def describe(self, serving_epoch: int) -> dict:
        """The healthz/status ``writer`` block; ``lag_records`` counts
        the records acknowledged but not yet served at
        ``serving_epoch``."""
        manager = self.store.manager
        return {
            "enabled": True,
            "wal_lsn": self.wal_lsn,
            "sealed_epoch": self.sealed_epoch,
            "lag_records": max(0, self.wal_lsn - int(serving_epoch)),
            "pending_documents": manager.pending,
            "n_documents": manager.n_documents,
            "ingest_method": manager.ingest_method,
            "fast_update_rank": manager.fast_update_rank,
            "seals_total": self.seal_loop.seals_total,
            "last_seal_unix": time.time() - self.store.seconds_since_checkpoint,
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
        self.seal_loop.start()

    async def stop(self, *, flush: bool = True) -> None:
        """Stop sealing and close the store (final flush checkpoint).

        The writer thread is joined and the switch interval restored
        even when the close fails — a fenced store refuses its flush
        but still releases its lock and WAL handle.
        """
        try:
            await self.seal_loop.stop(
                final=lambda: self.store.close(flush=flush)
            )
        finally:
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

        Runs the blocking store write on the seal loop's de-prioritized
        thread so the event loop keeps scattering queries (and
        concurrent batches and seals serialize structurally — that pool
        has one thread).  The response's ``epoch`` is the
        WAL LSN that acknowledged the batch — queries see the documents
        after the next seal/bump, which ``lag_records`` tracks.
        """
        texts = list(texts)
        t0 = time.perf_counter()
        # ``doc_ids`` goes as given: the manager rejects a string or a
        # bad list, which ``list()`` here would turn into ids.
        event = await self.seal_loop.run(
            lambda: self.store.add_texts(texts, doc_ids)
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
    # the seal loop's hook: bump → quorum → publish, laggard re-bumps
    # ------------------------------------------------------------------ #
    async def _after_tick(self, seal: SealInfo | None) -> None:
        if seal is not None:
            await self.publish(seal)
        await self._rebump_laggards()

    async def publish(self, seal: SealInfo) -> None:
        """Bump the workers onto ``seal`` and, on quorum, the front end.

        Ordering is the zero-drop contract (module docstring): future
        restarts first, then the workers, then — only once a quorum of
        every range's replicas acked — the front end's handle.  A bump
        that misses quorum parks the handle and the next tick retries:
        the old epoch keeps serving (every worker retains it) and no
        write is lost — the WAL already holds the records the next
        successful publish will serve.
        """
        service = self._service
        handle = EpochHandle.open(
            self.data_dir,
            service.plan.n_workers,
            replication=service.plan.replication,
            checkpoint=seal.name,
        )
        published = await service.propagate_handle(handle)
        self._pending_handle = None if published else handle
        self._publish_writer_gauges()

    async def _rebump_laggards(self) -> None:
        """Re-broadcast the current plan to workers behind the epoch.

        Retries a quorum-parked handle first — once enough replicas
        remap, the publish completes here — then re-bumps any worker
        that is up but behind the *published* epoch (its rows would
        otherwise fail over to siblings until it catches up).
        """
        service = self._service
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
