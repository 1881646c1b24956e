"""The warm standby: tail the primary's store read-only, adopt on death.

A writable cluster leaves ingest with a single point of failure: one
process holds the store ``flock``, and its death stops the write path
until an operator restarts it.
:class:`StandbyWriter` closes that gap without any consensus machinery,
because the durable store already *is* the replication channel — every
acked record is WAL-fsynced in a directory both processes can see, and
every sealed checkpoint is a self-verifying snapshot.  The standby
therefore needs only two loops:

* **follow** — poll the checkpoint directory; when the primary seals a
  newer epoch, move this cluster's own workers onto it through the
  fleet's one bump path, :meth:`~repro.cluster.service.ClusterService.
  advance` (every poll takes it: a bump that missed quorum is retried,
  and workers left behind are re-bumped).  The standby cluster serves
  reads the whole time, never more than one seal behind.
* **adopt** — probe the store lock (non-blocking).  While the primary
  lives, the probe fails and the standby stays read-only — it never
  opens a write handle, so it cannot corrupt the WAL it is tailing.
  The instant the primary dies (``flock`` dies with its process, so a
  SIGKILL frees it immediately), the probe succeeds: the standby has
  the fleet open its writer
  (:meth:`~repro.cluster.service.ClusterService.open_writer`), whose
  store open takes the lock *with a bumped fencing generation* (see
  :mod:`repro.store.lock`), replays the WAL tail past the last seal,
  and boot-seals ``reason="recover"`` when that tail is not empty — so
  the first promoted epoch already serves every record the dead
  primary ever acked.
  Zero acked records lost is not a best effort here; it is the store's
  standing recovery contract, inherited.  From then on it seals like a
  primary started ``--writable``: through the store's one
  :class:`~repro.store.sealing.StoreWriter`, under
  ``StandbyConfig.writer``.

Promotion is observable end to end: every transition appends a
timestamped event to the in-memory timeline and (when configured) a
JSONL promotion log — ``standby_start``, ``followed_epoch``,
``lock_free``, ``adopted``, ``promoted``, ``adoption_lost`` — which the
failover smoke uploads as a CI artifact.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import StoreError, StoreLockedError
from repro.obs.metrics import registry
from repro.store.checkpoint import newest_checkpoint
from repro.store.durable import DurableIndexStore
from repro.store.lock import StoreLock
from repro.store.sealing import CheckpointPolicy

if TYPE_CHECKING:
    from repro.cluster.service import ClusterService

__all__ = ["StandbyConfig", "StandbyWriter"]


@dataclass(frozen=True)
class StandbyConfig:
    """Tunables for the standby's follow/adopt loop."""

    #: Poll cadence, seconds — both the epoch tail and the lock probe.
    poll_seconds: float = 0.5
    #: JSONL file recording the promotion timeline (``None``: memory only).
    promotion_log: str | None = None
    #: Seal policy the promoted writer runs — normally identical to the
    #: primary's.
    writer: CheckpointPolicy = field(default_factory=CheckpointPolicy)


class StandbyWriter:
    """Tails a primary's store; promotes itself when the lock frees.

    Constructing the standby touches nothing: no lock, no WAL handle,
    no checkpoint open.  :meth:`start` binds the serving side and runs
    the poll loop; on promotion the adopted writer is installed as
    ``service.writer`` — from that moment ``/add`` works and the
    service is indistinguishable from one started ``--writable``.
    """

    def __init__(
        self,
        data_dir: pathlib.Path,
        config: StandbyConfig | None = None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.config = config or StandbyConfig()
        self.promoted = False
        self.events: list[dict] = []
        self.started_unix = time.time()
        self._service: ClusterService | None = None
        self._task: asyncio.Task | None = None
        self._stopped = False
        self._tail_epoch = 0
        #: The newest manifest epoch whose verified open fell back to an
        #: older checkpoint: verified once, not again on every poll.
        self._fell_back = 0
        # Lock probes and writer adoption are blocking filesystem work;
        # one thread keeps them off the scatter loop.
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-standby"
        )
        registry.set_gauge("cluster.standby.promoted", 0)

    # ------------------------------------------------------------------ #
    def _event(self, name: str, **attrs) -> None:
        record = {"ts": time.time(), "event": name, **attrs}
        self.events.append(record)
        if self.config.promotion_log:
            try:
                with open(self.config.promotion_log, "a") as fh:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            except OSError:
                pass

    def describe(self) -> dict:
        """The healthz ``standby`` block."""
        return {
            "promoted": self.promoted,
            "tail_epoch": self._tail_epoch,
            "uptime_seconds": time.time() - self.started_unix,
            "events": len(self.events),
            "last_event": self.events[-1]["event"] if self.events else None,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self, service: ClusterService) -> None:
        """Bind the serving side and start the poll loop (idempotent)."""
        self._service = service
        if self._task is None or self._task.done():
            self._stopped = False
            self._event("standby_start", data_dir=str(self.data_dir))
            self._task = asyncio.ensure_future(self._poll_loop())

    async def stop(self) -> None:
        """Stop polling.  An adopted writer is *not* stopped here — on
        promotion it became ``service.writer``, and the service's drain
        stops it through that reference (one owner, one stop)."""
        self._stopped = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # the poll loop: follow epochs, probe the lock
    # ------------------------------------------------------------------ #
    async def _poll_loop(self) -> None:
        while not self._stopped and not self.promoted:
            await asyncio.sleep(self.config.poll_seconds)
            if self._stopped or self.promoted:
                return
            try:
                await self._follow_epochs()
                await self._try_adopt()
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 — the tail must retry, not die
                registry.inc("cluster.standby.poll_errors_total")

    async def _follow_epochs(self) -> None:
        """Move our workers onto any newer checkpoint the primary sealed.

        An idle poll reads one number off the newest manifest: the
        checkpoint is verified (and mapped) only when its epoch is newer
        than the one the fleet serves or has parked.  Either way the
        poll ends in the fleet's ``advance``, which retries a parked
        bump and re-bumps laggards.  A corrupt newest checkpoint still
        falls back — the open walks to the previous valid one, whose
        epoch decides — once: its manifest epoch is remembered, and the
        next verified open waits for a newer manifest.
        """
        service = self._service
        if service is None:
            return
        checkpoints_dir, wal_path = DurableIndexStore.paths(self.data_dir)
        try:
            registry.set_gauge(
                "cluster.standby.wal_bytes", wal_path.stat().st_size
            )
        except OSError:
            pass
        newest = await asyncio.get_running_loop().run_in_executor(
            self._pool, newest_checkpoint, checkpoints_dir
        )
        epoch = int(newest.meta.get("epoch", 0)) if newest is not None else 0
        self._tail_epoch = max(self._tail_epoch, epoch)
        registry.set_gauge("cluster.standby.tail_epoch", self._tail_epoch)
        target = service.target_epoch
        fresh = epoch > max(target, self._fell_back)
        try:
            await service.advance("" if fresh else None)
        except StoreError:
            return  # nothing valid to follow yet
        if fresh and service.target_epoch < epoch:
            self._fell_back = epoch
        if service.target_epoch > target:
            self._event(
                "followed_epoch", epoch=service.target_epoch,
                published=service.epoch == service.target_epoch,
            )

    async def _try_adopt(self) -> None:
        """Probe the lock; on a free lock, become the primary.

        The probe-acquire is released immediately — it only answers "is
        the primary alive?" (a held ``flock`` dies with its owner, so a
        successful probe means the primary is gone, not slow).  The real
        acquisition happens inside the writer's store open, which bumps
        the fencing generation; if another standby won the race between
        probe and open, that open raises :class:`StoreLockedError` and
        we go back to tailing.
        """
        service = self._service
        if service is None:
            return
        loop = asyncio.get_running_loop()

        def _probe() -> bool:
            try:
                lock = StoreLock.acquire(self.data_dir)
            except StoreLockedError:
                return False
            lock.release()
            return True

        if not await loop.run_in_executor(self._pool, _probe):
            return
        self._event("lock_free")
        registry.inc("cluster.standby.adoptions_attempted_total")
        try:
            # Opens the store: takes the flock at generation g+1,
            # replays the WAL tail and boot-seals when it must (a failed
            # seal frees the lock for the next poll) — off the loop.
            writer = await loop.run_in_executor(
                self._pool, service.open_writer, self.config.writer
            )
        except StoreLockedError:
            self._event("adoption_lost")
            return
        seal = writer.store.last_seal
        self._event(
            "adopted",
            wal_lsn=writer.wal_lsn,
            sealed_epoch=seal.epoch,
            lock_generation=writer.store.lock_generation,
        )
        service.writer = writer
        # Publish the newest checkpoint (the boot seal's, or one the
        # dead primary sealed after our last follow) before the writer's
        # ticks start, so two advances never overlap.  A missed quorum
        # parks the handle for those ticks to retry; reads keep serving
        # the old epoch meanwhile.
        await service.advance(seal.name)
        writer.start()
        self.promoted = True
        registry.set_gauge("cluster.standby.promoted", 1)
        registry.inc("cluster.standby.promotions_total")
        self._event(
            "promoted", epoch=service.epoch, wal_lsn=writer.wal_lsn
        )
