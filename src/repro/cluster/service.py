"""The fleet backend: checkpoint → plan → supervisor → router.

:class:`ClusterService` is one of the two backends the front end
(:class:`~repro.server.service.QueryService`) hosts in its registry: it
answers ``start`` / ``drain`` / ``search`` / ``add`` / ``healthz`` like
the in-process scorer, but by scattering over shard worker *processes*
instead of scoring in-loop.  Admission, quotas, tenant routing and the
slow-query log are the front end's; this class owns one index's epoch,
plan and processes.
It opens each epoch once, as an
:class:`~repro.serving.snapshot.EpochSnapshot` over no rows (mapped,
for the vocabulary and query projection; workers map the same files)
stamped with its :class:`~repro.cluster.plan.ShardPlan`, and wires the
router's dead-connection reports into the supervisor's restarts.

By default the cluster is a *read-only* serving tier: ``/add`` is
refused with :class:`~repro.errors.ClusterReadOnlyError`, and a new
checkpoint is picked up by restarting the cluster.  Given a ``writer``
seal policy the service writes through the store's one owner, a
:class:`~repro.store.sealing.StoreWriter` it opens itself: ``/add``
WAL-logs on the owner's thread, the owner seals checkpoints on that
policy, and every tick ends in :meth:`ClusterService.advance`, the one
path that moves the fleet to a new epoch (a standby's poll and its
adoption take it too).  Epochs are held in an
:class:`~repro.serving.snapshot.EpochWindow` (served + one awaiting
quorum); ``search`` pins the served one, which every worker holds, so
zero queries drop across a bump.

The ingest kernel is the Vecharynski-Saad fast update
(:mod:`repro.updating.fast_update`): near-fold-in cost per batch, but
the factors stay orthonormal, so sustained ingest does not accumulate
the §4.3 drift folding-in would; consolidation still runs the exact
SVD-update on the pristine base.
"""

from __future__ import annotations

import asyncio
import pathlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.cluster.plan import ShardPlan, check_topology
from repro.cluster.router import ClusterRouter
from repro.cluster.supervisor import ClusterSupervisor, SupervisorConfig
from repro.errors import ClusterConfigError, ClusterReadOnlyError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.serving.snapshot import EpochSnapshot, EpochWindow
from repro.store.recovery import open_checkpoint

if TYPE_CHECKING:  # the writers load only on a fleet configured with one
    from repro.cluster.standby import StandbyConfig, StandbyWriter
    from repro.store.sealing import CheckpointPolicy, StoreWriter

__all__ = ["ClusterConfig", "ClusterService"]

#: Per-batch ingest kernel the fleet's writer runs: the Vecharynski-Saad
#: fast update, at residual sketch rank :data:`FAST_UPDATE_RANK`.
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


def _publish_writer_gauges(writer: StoreWriter) -> None:
    registry.set_gauge("cluster.writer.wal_lsn", writer.wal_lsn)
    registry.set_gauge("cluster.writer.sealed_epoch", writer.sealed_epoch)
    registry.set_gauge(
        "cluster.writer.pending_documents", writer.store.manager.pending
    )


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables for one fleet.  Each tunable is declared once, in the
    config of the part it tunes; this one holds the topology and those
    parts.  Admission and the slow-query log are the front end's
    :class:`~repro.server.service.ServerConfig`."""

    workers: int = 4
    #: Replicas per shard range; ``workers // replication`` ranges are
    #: carved, each served by R distinct worker processes.
    replication: int = 1
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: Own the store with this seal policy: ``/add`` accepted, epochs
    #: bump live.  ``None`` serves read-only.
    writer: CheckpointPolicy | None = None
    #: Run a warm standby writer: tail checkpoints + WAL read-only and
    #: adopt the store lock (promote to primary) when it frees.
    standby: StandbyConfig | None = None


class ClusterService:
    """Scatter-gather backend over one checkpoint, many processes."""

    def __init__(
        self,
        data_dir: pathlib.Path,
        config: ClusterConfig | None = None,
        *,
        host: str = "127.0.0.1",
        announce: Callable[[str], None] | None = None,
        tenant: str | None = None,
    ):
        self.config = config or ClusterConfig()
        self.data_dir = pathlib.Path(data_dir)
        #: The tenant this fleet serves (``None`` for single-tenant).
        #: Rides every scatter frame and the worker spawn command, so a
        #: worker of tenant A structurally cannot answer tenant B.
        self.tenant = tenant

        # Refuse impossible topologies before any process is spawned or
        # store lock taken (ShardPlan.compute re-validates later, but
        # by then a writable primary would already hold the flock).
        check_topology(self.config.workers, self.config.replication)
        if self.config.writer is not None and self.config.standby is not None:
            raise ClusterConfigError(
                "--writable and --standby are mutually exclusive: a "
                "standby must *not* hold the store lock until it "
                "promotes — run the primary with --writable and the "
                "standby with --standby"
            )

        # In writable mode the writer opens (locks) the store *first* and
        # seals when it must — so the epoch opened below already serves
        # every WAL-acknowledged document and records the writer's
        # ingest configuration in its manifest.
        self.writer: StoreWriter | None = None
        if self.config.writer is not None:
            self.writer = self.open_writer(self.config.writer)

        # ``search`` pins the served epoch at entry; ``advance`` offers a
        # sealed one to the window and publishes it on quorum.
        self.window = EpochWindow(self._open(""))
        self.router = ClusterRouter(self.plan.n_workers, tenant=tenant)
        self.supervisor = ClusterSupervisor(
            self.data_dir,
            self.plan,
            self.router,
            self.config.supervisor,
            host=host,
            announce=announce,
            tenant=tenant,
        )
        self.router.on_worker_dead = self.supervisor.notify_worker_dead

        # The warm standby never touches the store at construction: it
        # starts tailing (and probing the lock) only once the cluster
        # runs, and installs the writer it adopts as ``self.writer``.
        self.standby: StandbyWriter | None = None
        if self.config.standby is not None:
            from repro.cluster.standby import StandbyWriter

            self.standby = StandbyWriter(self.data_dir, self.config.standby)

        self._started = False
        #: Serializes the first ``start()``: a cold tenant's first
        #: queries arrive together and must spawn one set of workers.
        self._start_lock = asyncio.Lock()

    # ------------------------------------------------------------------ #
    # The serving epoch: every per-epoch attribute reads through the
    # window's served snapshot, replaced atomically by ``advance``.
    # ------------------------------------------------------------------ #
    def _open(self, checkpoint: str) -> EpochSnapshot:
        """One epoch of this fleet: the named checkpoint (O(header)), or
        the newest valid one for ``""``, over no rows — the front end
        only projects — stamped with the plan its scatter and bump use."""
        opened = open_checkpoint(self.data_dir, checkpoint)
        plan = ShardPlan.compute(
            opened.n_documents, self.config.workers, self.config.replication,
            epoch=opened.epoch, checkpoint=opened.name,
        )
        return opened.snapshot(0, 0, ann=False, plan=plan)

    @property
    def epoch(self) -> int:
        return self.window.served.epoch

    @property
    def plan(self) -> ShardPlan:
        return self.window.served.plan

    def describe(self) -> dict:
        """The serving epoch's status block (tenant registry)."""
        served = self.window.served
        return {"epoch": served.epoch, "n_documents": served.n_documents}

    # ------------------------------------------------------------------ #
    # the write path: one owner, one advance
    # ------------------------------------------------------------------ #
    def open_writer(self, policy: CheckpointPolicy) -> StoreWriter:
        """Open (lock, recover) the store and own it as this fleet's
        writer: the boot stamps the fleet's ingest kernel, and every tick
        ends in :meth:`advance` with the seal it took.  Blocking — the
        writable boot calls it here, a standby's adoption in its pool."""
        from repro.store.sealing import StoreWriter

        writer = StoreWriter.open(
            self.data_dir,
            policy,
            after_tick=lambda seal: self.advance(
                None if seal is None else seal.name
            ),
            configure=_stamp_ingest_kernel,
        )
        _publish_writer_gauges(writer)
        return writer

    async def advance(self, checkpoint: str | None) -> None:
        """Move the fleet toward the newest sealed epoch.

        ``checkpoint`` names a seal this process took (opened by name,
        O(header)), is ``""`` for the newest valid checkpoint (verified:
        a standby follows a store another process writes), or is
        ``None`` when nothing is new.  The open runs off the event loop
        and is offered to the window, which holds it as the next epoch
        when it is newer than both held ones.  A next epoch is then
        pushed in the zero-drop order: future restarts first, the bump
        broadcast next (naming the served epoch, which every worker
        keeps), and the publish only once a quorum of every range's
        replicas acked.  A miss keeps it next for the following call —
        the served epoch keeps answering and no write is lost.  With
        nothing next, workers up but behind the served epoch are
        re-bumped.  Callers never overlap: the owner's ticks, or a
        standby's polls and then its adoption.
        """
        window = self.window
        if checkpoint is not None:
            window.offer(await asyncio.to_thread(self._open, checkpoint))
        later = window.next
        if later is not None:
            self.supervisor.update_plan(later.plan)
            await self._bump(later.plan)
            if self.supervisor.quorum_met(later.plan):
                window.publish()
                registry.set_gauge("cluster.epoch", later.epoch)
                registry.set_gauge("cluster.n_documents", later.n_documents)
            else:
                registry.inc("cluster.bump_quorum_misses_total")
        elif any(
            row["state"] == "up" and row["epoch"] != self.epoch
            for row in self.supervisor.describe()
        ):
            await self._bump(self.plan)
        if self.writer is not None:
            _publish_writer_gauges(self.writer)

    async def _bump(self, plan) -> None:
        """Broadcast ``plan`` to every live worker; note the acks."""
        acked = await self.router.broadcast_bump(plan, self.epoch)
        for worker_id, epoch in acked.items():
            self.supervisor.note_epoch(worker_id, epoch)

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn and attach every worker (idempotent)."""
        async with self._start_lock:
            if self._started:
                return
            with span("cluster.start", workers=self.plan.n_workers):
                await self.supervisor.start()
            if self.writer is not None:
                self.writer.start()
            if self.standby is not None:
                await self.standby.start(self)
            self._started = True

    async def drain(self) -> None:
        """Graceful shutdown: stop the writer, SIGTERM workers."""
        if self.standby is not None:
            await self.standby.stop()
        if self.writer is not None:
            await self.writer.stop(flush=True)
        await self.supervisor.drain()
        self._started = False

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
        """One ranked search, scattered over the shard workers.

        Returns the reply and the scatter's slow-log evidence (per-shard
        timings, hedges, misses).  ``probes`` bounds every shard's scan
        to the same coarse cells (``None``: the exact scatter);
        ``exact=True`` overrides it.  The first search spawns the
        workers if :meth:`start` has not.  Never raises on worker death
        — degraded answers come back with ``partial=True`` and the
        unscored ``[lo, hi)`` ranges listed.
        """
        if not self._started:
            await self.start()
        # One epoch per request: project, scatter, and label against the
        # same snapshot even if the writer publishes a bump mid-flight.
        served = self.window.served
        # ``q̂ Σ`` is applied here, router-side, so every worker scores
        # identical bytes.
        result = await self.router.search_batch(
            served.scale(served.project(query)),
            plan=served.plan,
            top=top,
            threshold=threshold,
            timeout_ms=timeout_ms,
            probes=probes,
            exact=exact,
        )
        missing = [list(pair) for pair in result.missing]
        doc_ids = served.model.doc_ids
        payload = {
            "epoch": result.epoch,
            "n_documents": served.n_documents,
            "partial": result.partial,
            "missing": missing,
            "results": [
                [i, score, doc_ids[i]] for i, score in result.results[0]
            ],
        }
        return payload, {
            "partial": result.partial,
            "missing": missing,
            "shard_timings": {
                str(sid): ms for sid, ms in sorted(result.shard_timings.items())
            },
            "hedged": result.hedged,
            "deadline_missed": result.deadline_missed,
        }

    async def add(self, texts, doc_ids=None) -> dict:
        """Ingest through the store's owner, or refuse read-only.

        Writable: returns once the batch is WAL-fsynced (``durable``),
        the store write run on the owner's thread so the event loop
        keeps scattering queries.  The documents become searchable at
        the next seal/bump, which the response's ``epoch`` (the
        acknowledging WAL LSN) and the healthz ``writer.lag_records``
        let callers track.  Read-only: raises the typed
        :class:`ClusterReadOnlyError` the HTTP layer maps to 403,
        request id attached server-side.
        """
        writer = self.writer
        if writer is None:
            if self.standby is not None:
                raise ClusterReadOnlyError(
                    "standby has not adopted the store yet: the primary "
                    "still holds the writer lock — send writes there "
                    "until promotion"
                )
            raise ClusterReadOnlyError(
                "cluster serving is read-only: restart with "
                "--writable to ingest here, or write through the "
                "store's single writer (repro serve --data-dir) and "
                "restart the cluster to pick up the new checkpoint"
            )
        texts = list(texts)
        store = writer.store
        t0 = time.perf_counter()
        # ``doc_ids`` goes as given: the manager rejects a string or a
        # bad list, which ``list()`` here would turn into ids.
        event = await writer.run(lambda: store.add_texts(texts, doc_ids))
        registry.observe(
            "cluster.writer.ingest_seconds", time.perf_counter() - t0
        )
        registry.inc("cluster.writer.documents_total", len(texts))
        _publish_writer_gauges(writer)
        return {
            "epoch": writer.wal_lsn,
            "n_documents": store.manager.n_documents,
            "action": event.action,
            "reason": event.reason,
            "durable": True,
        }

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Cluster liveness: worker table (with per-worker checkpoint
        epoch), live count, degradation, and the writer block — enabled
        flag, WAL position, and ``lag_records`` (acknowledged but not
        yet sealed/remapped) when the cluster is writable."""
        served = self.window.served
        workers = self.supervisor.describe()
        ranges = self.supervisor.describe_ranges()
        live = sum(1 for w in workers if w["state"] == "up")
        # Health is per *range*: one dead replica of a still-covered
        # range is not degradation — the router fails reads over to its
        # siblings.  Only a range with zero healthy replicas (which at
        # replication 1 is any dead worker) degrades the cluster.
        uncovered = sum(1 for r in ranges if r["replicas_healthy"] == 0)
        if self.supervisor.draining:
            status = "draining"
        elif uncovered > 0:
            status = "degraded"
        else:
            status = "ok"
        if self.writer is None:
            writer = {"enabled": False}
        else:
            writer = self.writer.describe(served.epoch)
        plan = served.plan
        payload = {
            "status": status,
            "draining": self.supervisor.draining,
            "epoch": served.epoch,
            "checkpoint": served.checkpoint,
            "n_documents": served.n_documents,
            "n_shards": plan.n_shards,
            "replication": plan.replication,
            "n_workers": plan.n_workers,
            "workers_live": live,
            "workers": workers,
            "ranges": ranges,
            "writer": writer,
            "ann": True,  # every checkpoint carries its quantizer
        }
        if self.standby is not None:
            payload["standby"] = self.standby.describe()
        return payload
