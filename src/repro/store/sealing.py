"""The one seal loop: when a store's owner folds its WAL into a checkpoint.

A WAL-only store replays ever more records on each restart; sealing
bounds that by periodically folding live state into a fresh checkpoint.
:class:`CheckpointPolicy` says *when* (every N WAL records, every M
seconds of dirty state, or immediately after a consolidation —
consolidations rewrite the factor matrices, so the WAL suffix before one
is expensive to replay); :class:`SealLoop` is the one loop that asks it.
Every process holding a store's lock runs one: the in-process scorer
behind ``repro serve --data-dir`` and the cluster's primary writer (a
standby too, once it promotes).

The loop is an asyncio task on the serving event loop from server start
to drain.  Every :data:`POLL_SECONDS` it asks the policy with the
store's own bookkeeping — dirty WAL records, seconds since the newest
checkpoint, consolidations applied after that checkpoint's capture —
seals on its one de-prioritised thread when a trigger fires, then
awaits the owner's optional ``after_tick`` hook (the fleet's bump →
quorum → publish and its laggard re-bump).  A failed tick is counted
(``store.checkpoint_errors``) and retried on the next one: the serving
path must not die because a disk filled.

The non-blocking contract: the query path reads epoch snapshots
lock-free and is never touched here, and a seal never runs on the event
loop.  A seal holds the store's writer lock only to *capture* array
references (the manager replaces arrays, never mutates them) —
quantizer training, serialization and fsync happen after the lock is
released, so a writer on another thread (an in-process ``/add``) waits
for the capture at most.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import ReproError
from repro.obs.metrics import registry

__all__ = ["POLL_SECONDS", "CheckpointPolicy", "SealLoop"]

#: Seal-policy poll cadence, seconds (also the fleet's laggard re-bump
#: cadence: the fleet's hook runs on every tick).
POLL_SECONDS = 0.5

#: Niceness delta for the seal thread (Linux schedules niceness per
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


class SealLoop:
    """One store owner's seal loop (see the module docstring).

    ``after_tick(seal)`` is awaited after every tick with the
    :class:`~repro.store.durable.SealInfo` the tick sealed, or ``None``.
    :meth:`run` puts other blocking store work on the loop's thread, so
    an owner that writes through it serializes its writes with its
    seals structurally.
    """

    def __init__(self, store, policy: CheckpointPolicy, *, after_tick=None):
        self.store = store
        self.policy = policy
        self.after_tick = after_tick
        #: Seals this loop took (not its owner's boot or close seals).
        self.seals_total = 0
        self._task: asyncio.Task | None = None
        # Spawns its one thread on first use; joined by ``stop``.
        self._thread = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="repro-writer",
            initializer=_deprioritize_current_thread,
        )

    @property
    def running(self) -> bool:
        """Whether the loop is ticking."""
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Start ticking on the running event loop (idempotent)."""
        if not self.running:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-seal-loop"
            )

    async def stop(self, final=None) -> None:
        """Stop ticking, run ``final`` (blocking store work: the owner's
        close) on the loop's thread, then join that thread — also when
        ``final`` raises."""
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        try:
            if final is not None:
                await self.run(final)
        finally:
            self._thread.shutdown(wait=True)

    async def run(self, fn):
        """``fn()`` on the loop's one de-prioritised thread."""
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
