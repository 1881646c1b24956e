"""The one owner of a locked store: open, acknowledge, seal, close.

A WAL-only store replays ever more records on each restart; sealing
bounds that by folding live state into a fresh checkpoint.
:class:`CheckpointPolicy` says *when* (every N WAL records, every M
seconds of dirty state, or right after a consolidation, whose WAL
suffix is expensive to replay).  :class:`StoreWriter` is the one owner
every serving process writes its locked store through — ``repro serve
--data-dir`` and a writable cluster (a promoted standby too), whose
per-tick hook is the fleet's one epoch advance
(:meth:`~repro.cluster.service.ClusterService.advance`):

* **boot** — seals ``"recover"`` only when WAL replay left dirty
  records; otherwise nothing is written and ``last_seal`` is the opened
  checkpoint.  A failed boot seal closes the store (WAL handle and
  lock) before it re-raises, so a retry can take the lock.
* **ack and seal** — every write and every seal runs on the owner's one
  de-prioritised thread, never on the event loop, so an ``/add`` sent
  while a seal runs completes after it.  From :meth:`~StoreWriter.start`
  to :meth:`~StoreWriter.stop` a task asks the policy every
  :data:`POLL_SECONDS` with the store's own bookkeeping (dirty records,
  checkpoint age, consolidations the newest checkpoint did not capture),
  seals when a trigger fires, then awaits ``after_tick``.  A failed tick
  is counted (``store.checkpoint_errors``) and retried on the next one:
  the serving path must not die because a disk filled.
* **close** — :meth:`~StoreWriter.stop` flushes a final checkpoint and
  releases the lock on the owner's thread.

The query path reads epoch snapshots lock-free and is never touched
here.  While the owner runs it holds the switch interval at
:data:`SWITCH_INTERVAL_S`.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.obs.metrics import registry

if TYPE_CHECKING:  # a policy alone (a config) loads no store
    from repro.store.durable import DurableIndexStore

__all__ = ["POLL_SECONDS", "CheckpointPolicy", "StoreWriter"]

#: Seal-policy poll cadence, seconds (also the cadence at which a
#: writable fleet's ``advance`` retries a parked bump and re-bumps
#: laggards: it is the hook every tick awaits).
POLL_SECONDS = 0.5

#: GIL switch interval while the owner runs.  CPython's 5 ms default
#: lets one store operation hold the interpreter from the serving loop
#: for 5 ms at a stretch — query-latency spikes on a small machine; 1 ms
#: costs the batch-sized kernels the owner runs next to nothing.
SWITCH_INTERVAL_S = 0.001

#: Niceness delta for the writer thread (Linux schedules niceness per
#: thread).  Sealing is throughput work; the serving loop and the shard
#: workers are latency work — same trade RocksDB makes for its
#: compaction threads.
_NICENESS = 5


def _deprioritize_current_thread() -> None:
    """Best-effort: lower the calling thread's scheduling priority.

    Linux schedules niceness per thread (threads are LWPs), so passing
    the native thread id to ``setpriority`` nices just this thread, not
    the process — the serving loop keeps its priority.
    """
    with contextlib.suppress(AttributeError, OSError):
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), _NICENESS)


@dataclass(frozen=True)
class CheckpointPolicy:
    """When a store's seal loop seals.

    Any satisfied trigger fires; ``None`` disables that trigger.  The
    time trigger only fires when there is something to flush (dirty
    records > 0) — an idle server does not churn identical checkpoints.
    """

    every_records: int | None = 64
    every_seconds: float | None = 300.0
    on_consolidate: bool = True

    def __post_init__(self):
        # A trigger is off as None, never as 0 (the CLI's spelling of
        # off); a count below 1 would seal on every tick, dirty or not.
        if (self.every_records is not None and self.every_records < 1) or (
            self.every_seconds is not None and not self.every_seconds > 0
        ):
            raise ReproError(
                f"a seal trigger is >= 1 record, > 0 s or None: {self}"
            )

    def due(
        self,
        *,
        dirty_records: int,
        seconds_since: float,
        consolidated: bool,
    ) -> str | None:
        """The trigger that fired, or None (the checkpoint ``reason``)."""
        if self.on_consolidate and consolidated and dirty_records > 0:
            return "consolidation"
        if (
            self.every_records is not None
            and dirty_records >= self.every_records
        ):
            return f"wal_records>={self.every_records}"
        if (
            self.every_seconds is not None
            and dirty_records > 0
            and seconds_since >= self.every_seconds
        ):
            return f"age>={self.every_seconds:g}s"
        return None


class StoreWriter:
    """The one owner of a locked store (see the module docstring).

    ``configure(manager)`` runs after WAL replay, before the boot seal,
    and returns the seal reason a setting it changed needs, or None.
    ``after_tick(seal)`` is awaited after every tick with the
    :class:`~repro.store.durable.SealInfo` it sealed, or ``None``.
    """

    def __init__(
        self,
        store: DurableIndexStore,
        policy: CheckpointPolicy,
        *,
        after_tick=None,
        configure=None,
    ):
        try:
            stamped = configure(store.manager) if configure else None
            reason = "recover" if store.dirty_records > 0 else stamped
            if reason is not None:
                store.seal(reason)
        except BaseException:
            store.close(flush=False)
            raise
        self.store = store
        self.policy = policy
        self.after_tick = after_tick
        #: Seals the policy triggered (not the boot or the close seal).
        self.seals_total = 0
        self._task: asyncio.Task | None = None
        self._prior_switch_interval: float | None = None
        self._stopped = False
        # Spawns its one thread on first use; joined by ``stop``.
        self._thread = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="repro-writer",
            initializer=_deprioritize_current_thread,
        )

    @classmethod
    def open(
        cls, data_dir, policy: CheckpointPolicy, **kwargs
    ) -> "StoreWriter":
        """Open (lock, recover) the store at ``data_dir`` and own it."""
        from repro.store.durable import DurableIndexStore

        return cls(DurableIndexStore.open(data_dir), policy, **kwargs)

    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        """Whether the seal loop is ticking."""
        return self._task is not None and not self._task.done()

    @property
    def sealed_epoch(self) -> int:
        """Epoch (== WAL LSN) of the newest checkpoint opened or sealed."""
        return self.store.last_seal.epoch

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
            "seals_total": self.seals_total,
            "last_seal_unix": time.time() - self.store.seconds_since_checkpoint,
        }

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start ticking on the running event loop and hold the switch
        interval (idempotent)."""
        if self._prior_switch_interval is None:
            current = sys.getswitchinterval()
            if current > SWITCH_INTERVAL_S:
                self._prior_switch_interval = current
                sys.setswitchinterval(SWITCH_INTERVAL_S)
        if not self.running:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-seal-loop"
            )

    async def stop(self, *, flush: bool = True) -> None:
        """Stop ticking, close the store on the owner's thread (a final
        checkpoint when ``flush`` and records are dirty), then join the
        thread and restore the switch interval, also when the close
        raises (a fenced store refuses its flush, yet closes).  Once: a
        second stop (a backend drained twice) returns at once."""
        if self._stopped:
            return
        self._stopped = True
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        try:
            await self.run(lambda: self.store.close(flush=flush))
        finally:
            self._thread.shutdown(wait=True)
            if self._prior_switch_interval is not None:
                sys.setswitchinterval(self._prior_switch_interval)
                self._prior_switch_interval = None

    async def run(self, fn):
        """``fn()`` on the owner's one de-prioritised thread: every
        write goes here, so writes and seals serialize structurally."""
        return await asyncio.get_running_loop().run_in_executor(
            self._thread, fn
        )

    async def tick(self):
        """Seal when the policy says so, then await ``after_tick``;
        returns the :class:`~repro.store.durable.SealInfo` sealed, or
        None."""
        store = self.store
        reason = self.policy.due(
            dirty_records=store.dirty_records,
            seconds_since=store.seconds_since_checkpoint,
            consolidated=store.consolidations_since_checkpoint > 0,
        )
        seal = None
        if reason is not None:
            seal = await self.run(lambda: store.seal(reason))
            self.seals_total += 1
        if self.after_tick is not None:
            await self.after_tick(seal)
        return seal

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(POLL_SECONDS)
            try:
                await self.tick()
            except Exception:  # noqa: BLE001 — sealing must retry, not die
                registry.inc("store.checkpoint_errors")
