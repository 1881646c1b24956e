"""The primary writer: the fleet's half of the cluster's single ingest process.

Exactly one writer owns the durable store's ``flock`` (the workers are
lock-free checkpoint consumers), so the cluster's write path is the
store's, through its one owner, :class:`~repro.store.sealing.
StoreWriter` — the same one ``repro serve --data-dir`` runs: every
``/add`` and every seal on its one de-prioritised thread, acknowledged
means WAL-fsynced, and a SIGKILL mid-stream recovers bit-identically.

What this module adds is the fleet's half.  The ingest kernel is the
Vecharynski-Saad fast update (:mod:`repro.updating.fast_update`):
near-fold-in cost per batch, but the factors stay orthonormal, so
sustained ingest does not accumulate the §4.3 drift folding-in would;
consolidation still runs the exact SVD-update on the pristine base.
Propagation is the owner's per-tick hook: after a seal the hook derives
the next :class:`~repro.cluster.plan.ShardPlan` from the
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
import time
from typing import Sequence

from repro.cluster.epochs import EpochHandle
from repro.obs.metrics import registry
from repro.store.durable import SealInfo
from repro.store.sealing import CheckpointPolicy, StoreWriter

__all__ = ["PrimaryWriter"]

#: Per-batch ingest kernel the writer runs: the Vecharynski-Saad fast
#: update, at residual sketch rank :data:`FAST_UPDATE_RANK`.
INGEST_METHOD = "fast-update"
FAST_UPDATE_RANK = 8


def _stamp_ingest_kernel(manager) -> str | None:
    """Set the fleet's ingest kernel after WAL replay (changing it
    mid-log would break bit-identical replay); ``"adopt"`` — a seal that
    stamps it before any record lands under it — when that changed it."""
    changed = (
        manager.ingest_method != INGEST_METHOD
        or manager.fast_update_rank != FAST_UPDATE_RANK
    )
    manager.ingest_method = INGEST_METHOD
    manager.fast_update_rank = FAST_UPDATE_RANK
    return "adopt" if changed else None


class PrimaryWriter:
    """Owns the store through its :class:`StoreWriter`; bumps and
    publishes epochs.

    Constructing the writer opens (and so locks) the store: the cluster
    boots serving *every* acknowledged document, from a checkpoint that
    records this writer's ingest kernel.  :meth:`start` binds the
    serving side and starts the owner under ``policy``.
    """

    def __init__(self, data_dir: pathlib.Path, policy: CheckpointPolicy):
        self.data_dir = pathlib.Path(data_dir)
        self.writer = StoreWriter.open(
            self.data_dir,
            policy,
            after_tick=self._after_tick,
            configure=_stamp_ingest_kernel,
        )
        self._service = None
        #: A sealed handle whose bump did not reach quorum yet: the old
        #: epoch keeps serving, and the next tick retries the publish.
        self._pending_handle: EpochHandle | None = None
        self._publish_writer_gauges()

    def _publish_writer_gauges(self) -> None:
        writer = self.writer
        registry.set_gauge("cluster.writer.wal_lsn", writer.wal_lsn)
        registry.set_gauge("cluster.writer.sealed_epoch", writer.sealed_epoch)
        registry.set_gauge(
            "cluster.writer.pending_documents", writer.store.manager.pending
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, service) -> None:
        """Bind the serving side and start the owner (idempotent)."""
        self._service = service
        self.writer.start()

    # ------------------------------------------------------------------ #
    # the write path
    # ------------------------------------------------------------------ #
    async def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> dict:
        """WAL-logged ingest; returns once the batch is durable.

        The blocking store write runs on the owner's thread, so the
        event loop keeps scattering queries.  The response's ``epoch``
        is the WAL LSN that acknowledged the batch — queries see the
        documents after the next seal/bump, which ``lag_records``
        tracks.
        """
        texts = list(texts)
        store = self.writer.store
        t0 = time.perf_counter()
        # ``doc_ids`` goes as given: the manager rejects a string or a
        # bad list, which ``list()`` here would turn into ids.
        event = await self.writer.run(lambda: store.add_texts(texts, doc_ids))
        registry.observe(
            "cluster.writer.ingest_seconds", time.perf_counter() - t0
        )
        registry.inc("cluster.writer.documents_total", len(texts))
        self._publish_writer_gauges()
        return {
            "epoch": self.writer.wal_lsn,
            "n_documents": store.manager.n_documents,
            "action": event.action,
            "reason": event.reason,
            "durable": True,
        }

    # ------------------------------------------------------------------ #
    # the owner's per-tick hook: bump → quorum → publish, laggard re-bumps
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
