"""Worker lifecycle: spawn, watch, evict on silence, restart with backoff.

The supervisor owns the worker *processes*; the router owns the worker
*connections*.  Each worker slot of the
:class:`~repro.cluster.plan.ShardPlan` — R slots per shard range
— gets a ``python -m repro cluster worker`` subprocess whose ready
banner (printed only after the checkpoint is mapped and the socket
bound) is parsed for its ephemeral port, then the router is attached.
From there two independent signals cover the two ways a worker can
fail:

* **exit** — a per-worker watcher task awaits the process and, unless
  the cluster is draining, detaches the router and schedules a restart
  with bounded exponential backoff (``base · 2^(restarts-1)``, capped);
* **silence** — a heartbeat loop pings every live worker through the
  router; a worker that misses ``MISS_LIMIT`` consecutive heartbeats is
  considered wedged (alive but not answering — the failure mode exit
  codes cannot see) and is killed, which hands it to the watcher path.

Between a worker's death and its restart the range's *siblings* carry
its reads (the router fails over before declaring rows missing); only
when every replica of a range is down does the query path degrade to
``partial=True``.  Health is therefore judged per *range*, not per
process: :meth:`describe_ranges` reports ``replicas_healthy`` /
``replicas_total`` for each range, and :meth:`quorum_met` answers the
epoch-bump question — has a majority of every range's replicas remapped
onto the new checkpoint?
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import signal
import sys
from dataclasses import dataclass, field
from typing import Callable

from repro.cluster.plan import ShardPlan
from repro.cluster.router import ClusterRouter
from repro.errors import ClusterError
from repro.obs.metrics import registry

__all__ = ["SupervisorConfig", "ClusterSupervisor"]

#: Consecutive missed heartbeats before a worker is killed.
MISS_LIMIT = 3
#: Deadline for a spawned worker to print its ready banner, seconds.
SPAWN_TIMEOUT_S = 60.0
#: Seconds a SIGTERMed worker gets to exit before SIGKILL on drain.
DRAIN_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables for worker lifecycle management."""

    #: Seconds between heartbeat rounds (also the per-ping deadline).
    heartbeat_interval: float = 1.0
    #: First restart delay, seconds; doubles per consecutive restart.
    backoff_base: float = 0.5
    #: Restart delay ceiling, seconds.
    backoff_cap: float = 10.0


@dataclass
class _WorkerRecord:
    """Mutable per-worker-slot process state."""

    worker_id: int
    shard_id: int
    replica: int
    proc: asyncio.subprocess.Process | None = None
    port: int = 0
    pid: int = 0
    state: str = "starting"
    missed_heartbeats: int = 0
    restarts: int = 0
    #: Checkpoint epoch this worker last reported serving (banner at
    #: spawn, then bump acks) — the per-worker lag signal healthz shows.
    epoch: int = 0
    tasks: list[asyncio.Task] = field(default_factory=list)


class ClusterSupervisor:
    """Keeps one process per worker slot of ``plan`` alive and attached."""

    def __init__(
        self,
        data_dir: pathlib.Path,
        plan: ShardPlan,
        router: ClusterRouter,
        config: SupervisorConfig | None = None,
        *,
        host: str = "127.0.0.1",
        announce: Callable[[str], None] | None = None,
        tenant: str | None = None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.plan = plan
        self.router = router
        self.config = config or SupervisorConfig()
        self.host = host
        #: Tenant id handed to every spawned worker (``--tenant``), so a
        #: restarted worker keeps refusing foreign tenants' frames.
        self.tenant = tenant
        self._announce = announce or (lambda line: None)
        self._records: dict[int, _WorkerRecord] = {
            wid: _WorkerRecord(
                wid, self.plan.range_of(wid), self.plan.replica_of(wid)
            )
            for wid in self.plan.worker_ids()
        }
        self._restarting: set[int] = set()
        self._draining = False
        self._heartbeat_task: asyncio.Task | None = None

    def update_plan(self, plan: ShardPlan) -> None:
        """Point future spawns at a newer epoch's plan.

        Called by the fleet's ``advance`` *before* broadcasting the bump, so
        a worker that dies mid-bump restarts directly onto the new
        checkpoint instead of the superseded one.  Running workers are
        untouched — they catch up through the bump op.
        """
        if plan.n_shards != self.plan.n_shards:
            raise ClusterError(
                f"plan update changes shard count "
                f"{self.plan.n_shards} -> {plan.n_shards}; worker "
                "processes are fixed per shard"
            )
        if plan.replication != self.plan.replication:
            raise ClusterError(
                f"plan update changes replication "
                f"{self.plan.replication} -> {plan.replication}; worker "
                "slots are fixed for the cluster's lifetime"
            )
        self.plan = plan

    def note_epoch(self, worker_id: int, epoch: int) -> None:
        """Record a worker's acked epoch (bump ack or spawn banner)."""
        record = self._records.get(worker_id)
        if record is None:
            return
        record.epoch = int(epoch)
        registry.set_gauge(f"cluster.worker.{worker_id}.epoch", record.epoch)

    # ------------------------------------------------------------------ #
    # spawn
    # ------------------------------------------------------------------ #
    def _worker_command(self, worker_id: int) -> list[str]:
        record = self._records[worker_id]
        return [
            sys.executable, "-m", "repro", "--no-obs", "cluster", "worker",
            "--data-dir", str(self.data_dir),
            "--shard", str(record.shard_id),
            "--replica", str(record.replica),
            "--plan", self.plan.to_json(),
            "--host", self.host,
            "--port", "0",
            *(
                ["--tenant", self.tenant]
                if self.tenant is not None
                else []
            ),
        ]

    def _worker_env(self) -> dict[str, str]:
        import repro

        src_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
        return env

    async def _spawn(self, worker_id: int) -> None:
        """Start one worker, parse its banner, attach the router."""
        record = self._records[worker_id]
        record.state = "starting"
        record.missed_heartbeats = 0
        proc = await asyncio.create_subprocess_exec(
            *self._worker_command(worker_id),
            stdout=asyncio.subprocess.PIPE,
            stderr=None,  # inherit: worker errors land in our stderr
            env=self._worker_env(),
        )
        record.proc = proc
        try:
            banner = await asyncio.wait_for(
                self._await_banner(proc), SPAWN_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            proc.kill()
            raise ClusterError(
                f"worker {worker_id} produced no ready banner within "
                f"{SPAWN_TIMEOUT_S:.0f} s"
            )
        if banner is None:
            code = await proc.wait()
            raise ClusterError(
                f"worker {worker_id} exited with code {code} before "
                "becoming ready"
            )
        record.port = banner["port"]
        record.pid = banner["pid"]
        self.note_epoch(worker_id, banner.get("epoch", 0))
        await self.router.attach(worker_id, self.host, record.port)
        record.state = "up"
        self._announce(
            f"worker {worker_id} (shard {record.shard_id} replica "
            f"{record.replica}) up on {self.host}:{record.port} "
            f"pid={record.pid}"
        )
        record.tasks = [
            asyncio.ensure_future(self._watch(worker_id, proc)),
            asyncio.ensure_future(self._pump_stdout(worker_id, proc)),
        ]

    @staticmethod
    async def _await_banner(
        proc: asyncio.subprocess.Process,
    ) -> dict | None:
        """First ``ready`` line of the worker's stdout, parsed; None on EOF."""
        assert proc.stdout is not None
        while True:
            raw = await proc.stdout.readline()
            if not raw:
                return None
            line = raw.decode("utf-8", "replace").strip()
            if " ready on " not in line:
                continue
            try:
                addr = line.split(" ready on ", 1)[1].split()[0]
                port = int(addr.rsplit(":", 1)[1])
                pid = int(line.rsplit("pid=", 1)[1])
            except (IndexError, ValueError):
                raise ClusterError(f"unparseable worker banner: {line!r}")
            try:
                epoch = int(line.rsplit("epoch=", 1)[1].split()[0])
            except (IndexError, ValueError):
                epoch = 0
            return {"port": port, "pid": pid, "epoch": epoch}

    async def _pump_stdout(
        self, worker_id: int, proc: asyncio.subprocess.Process
    ) -> None:
        """Drain post-banner stdout so the worker can never block on it."""
        assert proc.stdout is not None
        try:
            while True:
                raw = await proc.stdout.readline()
                if not raw:
                    return
                line = raw.decode("utf-8", "replace").strip()
                if line:
                    self._announce(f"worker {worker_id}: {line}")
        except asyncio.CancelledError:
            return

    # ------------------------------------------------------------------ #
    # failure handling
    # ------------------------------------------------------------------ #
    async def _watch(
        self, worker_id: int, proc: asyncio.subprocess.Process
    ) -> None:
        """Await one process; on unexpected death, detach and restart."""
        code = await proc.wait()
        record = self._records[worker_id]
        if self._draining or record.proc is not proc:
            return
        record.state = "dead"
        registry.inc("cluster.worker_exits_total")
        self._announce(
            f"worker {worker_id} (pid {record.pid}) exited with code {code}"
        )
        await self.router.detach(worker_id)
        self._schedule_restart(worker_id)

    def notify_worker_dead(self, worker_id: int) -> None:
        """Router callback: a connection died mid-query.

        The watcher usually fires first (the process exited), but a
        connection can die while the process lives — this path covers
        it by forcing the heartbeat verdict early.
        """
        if self._draining:
            return
        record = self._records.get(worker_id)
        if record is None or record.state != "up":
            return
        record.missed_heartbeats = MISS_LIMIT

    def _schedule_restart(self, worker_id: int) -> None:
        if self._draining or worker_id in self._restarting:
            return
        self._restarting.add(worker_id)
        asyncio.ensure_future(self._restart(worker_id))

    async def _restart(self, worker_id: int) -> None:
        record = self._records[worker_id]
        try:
            record.restarts += 1
            delay = min(
                self.config.backoff_cap,
                self.config.backoff_base * 2 ** (record.restarts - 1),
            )
            record.state = "restarting"
            registry.inc("cluster.restarts_total")
            self._announce(
                f"restarting worker {worker_id} in {delay:.1f} s "
                f"(restart #{record.restarts})"
            )
            await asyncio.sleep(delay)
            if self._draining:
                return
            await self._spawn(worker_id)
        except ClusterError as exc:
            # Spawn failed outright; try again along the backoff curve.
            self._announce(f"worker {worker_id} restart failed: {exc}")
            record.state = "dead"
            self._restarting.discard(worker_id)
            self._schedule_restart(worker_id)
            return
        finally:
            self._restarting.discard(worker_id)

    async def _heartbeat_loop(self) -> None:
        interval = self.config.heartbeat_interval
        while not self._draining:
            await asyncio.sleep(interval)
            for worker_id, record in self._records.items():
                if record.state != "up" or self._draining:
                    continue
                ok = await self.router.ping(worker_id, timeout=interval)
                if ok:
                    record.missed_heartbeats = 0
                    continue
                record.missed_heartbeats += 1
                if record.missed_heartbeats < MISS_LIMIT:
                    continue
                registry.inc("cluster.evictions_total")
                self._announce(
                    f"worker {worker_id} missed "
                    f"{record.missed_heartbeats} heartbeats; evicting"
                )
                if record.proc is not None:
                    try:
                        record.proc.kill()
                    except ProcessLookupError:
                        pass
                # The watcher task sees the exit and restarts it.

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Spawn every worker slot; raises if any fails its first spawn."""
        for worker_id in self.plan.worker_ids():
            await self._spawn(worker_id)
        self._heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())

    async def drain(self) -> None:
        """SIGTERM every worker, wait, SIGKILL stragglers, detach all."""
        self._draining = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
        procs = []
        for record in self._records.values():
            record.state = "draining"
            if record.proc is not None and record.proc.returncode is None:
                try:
                    record.proc.send_signal(signal.SIGTERM)
                except ProcessLookupError:
                    continue
                procs.append(record.proc)
        if procs:
            waits = [asyncio.ensure_future(p.wait()) for p in procs]
            _done, pending = await asyncio.wait(
                waits, timeout=DRAIN_TIMEOUT_S
            )
            if pending:
                for proc in procs:
                    if proc.returncode is None:
                        proc.kill()
                await asyncio.wait(pending)
        for record in self._records.values():
            for task in record.tasks:
                task.cancel()
        await self.router.close()

    # ------------------------------------------------------------------ #
    def _row_state(self, record: _WorkerRecord) -> str:
        # A worker at the miss limit is not serving even if its process
        # record still says "up" — the router's dead-connection report
        # lands here synchronously, so degraded health shows immediately,
        # without waiting for the exit watcher to run.
        if record.state == "up" and record.missed_heartbeats >= MISS_LIMIT:
            return "unresponsive"
        return record.state

    def describe(self) -> list[dict]:
        """Per-worker status rows for healthz / ``cluster status``.

        Flat rows in ascending worker-slot order (== shard order at
        replication 1, so unreplicated callers can keep indexing by
        shard id).
        """
        rows = []
        for worker_id in self.plan.worker_ids():
            record = self._records[worker_id]
            shard = self.plan.shard(record.shard_id)
            rows.append(
                {
                    "worker": worker_id,
                    "shard": record.shard_id,
                    "replica": record.replica,
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "state": self._row_state(record),
                    "pid": record.pid,
                    "port": record.port,
                    "epoch": record.epoch,
                    "restarts": record.restarts,
                    "missed_heartbeats": record.missed_heartbeats,
                }
            )
        return rows

    def describe_ranges(self) -> list[dict]:
        """Per-*range* health: one dead replica of a healthy range is
        not degradation.

        Each row aggregates the range's replica set:
        ``replicas_healthy`` counts replicas currently serving
        (state ``up`` and under the heartbeat miss limit) out of
        ``replicas_total``; ``replicas`` nests the per-worker rows.
        """
        rows = []
        workers = {row["worker"]: row for row in self.describe()}
        for shard in self.plan.shards:
            replica_rows = [
                workers[wid] for wid in self.plan.replica_set(shard.shard_id)
            ]
            healthy = sum(
                1 for row in replica_rows if row["state"] == "up"
            )
            rows.append(
                {
                    "shard": shard.shard_id,
                    "lo": shard.lo,
                    "hi": shard.hi,
                    "replicas_total": len(replica_rows),
                    "replicas_healthy": healthy,
                    "replicas": replica_rows,
                }
            )
        return rows

    def quorum_met(self, plan: ShardPlan) -> bool:
        """True iff every range has a quorum of replicas on ``plan.epoch``.

        The epoch-bump completion test: a bump only *publishes* once a
        majority (``replication // 2 + 1``) of each range's replicas
        are up and have acked the new epoch — otherwise one slow
        replica set could serve a just-published epoch from a minority
        while its siblings still answer the old one after a failover.
        """
        quorum = plan.quorum()
        for sid in range(plan.n_shards):
            acked = 0
            for wid in plan.replica_set(sid):
                record = self._records.get(wid)
                if (
                    record is not None
                    and self._row_state(record) == "up"
                    and record.epoch == plan.epoch
                ):
                    acked += 1
            if acked < quorum:
                return False
        return True

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining
