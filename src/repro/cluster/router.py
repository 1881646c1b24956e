"""The scatter-gather router: replica sets, failover, hedging, exact merge.

One :class:`ClusterRouter` holds a persistent, id-multiplexed frame
connection to each live worker slot of a
:class:`~repro.cluster.plan.ShardPlan`.  A query batch is scaled
once (``Q Σ``, mirroring :meth:`EpochSnapshot.scale`),
scattered **once per range** — not per worker — as one float64 array,
and the per-range stable top-k answers, one
:data:`~repro.parallel.sharding.RANKED` record array per query (see
:mod:`repro.cluster.wire` for how arrays cross the wire), are merged per
query with :func:`repro.parallel.sharding.merge_topk`.  Every replica of
a range holds identical scoring state for an epoch, and a reported score is a
pure function of (row, query), so with any one replica per range live
the cluster's answer is element-identical to the whole-model
:meth:`EpochSnapshot.search <repro.server.state.EpochSnapshot.search>`:
indices, scores, tie order — regardless of *which* replica answered.

Reads load-balance: each scatter picks a range's first candidate by
power-of-two-choices (sample two replicas, send to the one with fewer
requests in flight, breaking ties by the faster latency-history
median), which spreads concurrent requests across replicas without
global coordination.  Failure is failover
before degradation: a replica whose connection dies (or whose epoch
skewed) has a sibling tried immediately; a replica that is merely slow
gets a sibling *hedge* — after its own latency-quantile when history
has armed, else at an even split of the remaining budget — and the
first answer wins, all other attempts cancelled, so one range can never
contribute twice to a merge.  Only when every replica of a range is
exhausted does the response degrade to ``partial=True`` with that
range's ``[lo, hi)`` rows named — a search over most of the collection
is far more useful than a 500.  With replication 1 all of this reduces
to the original single-worker behavior: same-worker one-shot hedging,
deadline misses as partials, eviction left to the heartbeat loop.

The two hedges have different triggers because they buy different
things.  A sibling's latency is independent of the straggler's, so the
quantile trigger cuts the tail for a bounded ``1 - HEDGE_QUANTILE``
share of extra load.  A duplicate to the *same* worker runs on the same
process and CPU as the request it shadows: it can only win when that
request is stuck (a wedged connection or thread), never when the worker
is merely running late — and a quantile trigger would add load to
exactly the worker that is.  So the one-shot waits until the request
has outlived every request the worker has ever answered.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.cluster.plan import ShardPlan
from repro.cluster.wire import BUMP_OP, read_frame, write_frame
from repro.errors import ClusterError
from repro.obs.metrics import registry
from repro.obs.trace_context import TraceContext, current_trace
from repro.obs.tracing import span
from repro.parallel.sharding import merge_topk

__all__ = ["WorkerChannel", "ClusterResult", "ClusterRouter"]

#: Per-range deadline for one scatter RPC (all replica attempts share
#: it), milliseconds, when the request names none.
WORKER_TIMEOUT_MS = 2000.0
#: Quantile of the worker's own latency history after which a
#: straggling request is hedged with a sibling.
HEDGE_QUANTILE = 0.95
#: Observations a worker's histogram needs before hedging arms — below
#: this the quantile estimate is noise.
HEDGE_MIN_SAMPLES = 20
#: Never hedge earlier than this (milliseconds), however fast the
#: history says the worker usually is.
HEDGE_FLOOR_MS = 1.0
#: Deadline for establishing a worker connection, seconds.
CONNECT_TIMEOUT_S = 5.0
#: Deadline for every live worker to ack an epoch bump, seconds.
BUMP_TIMEOUT_S = 30.0


class WorkerChannel:
    """One persistent frame connection with id-multiplexed requests.

    Concurrent :meth:`call`\\ s tag their frames with monotonically
    increasing ids; a single reader task resolves each response to its
    waiting future, so one TCP connection carries a whole batch fan-out
    plus interleaved heartbeats.  When the peer hangs up — or sends a
    frame that does not decode, which leaves the stream out of sync —
    every pending call fails with :class:`ConnectionError` at once.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "WorkerChannel":
        """Open a channel to a worker (ConnectionError on refusal)."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), CONNECT_TIMEOUT_S
            )
        except (asyncio.TimeoutError, OSError) as exc:
            raise ConnectionError(
                f"cannot connect to worker at {host}:{port}: {exc!r}"
            )
        return cls(reader, writer)

    @property
    def closed(self) -> bool:
        """True once the connection is gone (calls will fail fast)."""
        return self._closed

    async def _read_loop(self) -> None:
        error: BaseException
        try:
            while True:
                message = await read_frame(self._reader)
                if message is None:
                    error = ConnectionError("worker closed the connection")
                    break
                request_id = message.get("id")
                if type(request_id) is not int:
                    raise ClusterError(f"worker reply has id {request_id!r}")
                future = self._pending.pop(request_id, None)
                if future is not None and not future.done():
                    future.set_result(message)
        except (ConnectionError, OSError, ClusterError) as exc:
            error = exc
        except asyncio.CancelledError:
            error = ConnectionError("channel closed")
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError(f"worker connection lost: {error!r}")
                )
        self._pending.clear()

    async def call(self, message: dict) -> dict:
        """Send one request frame and await its matching response."""
        if self._closed:
            raise ConnectionError("channel is closed")
        request_id = next(self._ids)
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        try:
            await write_frame(self._writer, {**message, "id": request_id})
            return await future
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionError(f"worker connection lost: {exc!r}")
        finally:
            self._pending.pop(request_id, None)

    async def close(self) -> None:
        """Tear down the connection and fail any in-flight calls."""
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass


@dataclass
class ClusterResult:
    """One scatter-gather answer, possibly degraded.

    ``results[qi]`` is the merged ``(doc_index, score)`` list for query
    ``qi`` over every range that answered.  ``partial`` is True when any
    range did not, and ``missing`` lists those ranges' ``(lo, hi)`` row
    spans so the caller knows exactly which documents went unscored.
    ``shard_timings`` (range id → RPC milliseconds), ``served_by``
    (range id → the worker slot whose answer won), ``hedged``,
    ``failovers``, and ``deadline_missed`` are the slow-query evidence
    the slow log dumps.
    """

    results: list[list[tuple[int, float]]]
    partial: bool = False
    missing: list[tuple[int, int]] = field(default_factory=list)
    epoch: int = 0
    shard_timings: dict[int, float] = field(default_factory=dict)
    hedged: list[int] = field(default_factory=list)
    deadline_missed: list[int] = field(default_factory=list)
    served_by: dict[int, int] = field(default_factory=dict)
    #: Range ids where at least one replica attempt failed over to a
    #: sibling (connection death or epoch skew) before the answer came.
    failovers: list[int] = field(default_factory=list)


@dataclass
class _RangeOutcome:
    """What one range's replica-set scatter produced."""

    kind: str = "dead"  # ok | deadline | skew | dead | rejected
    response: dict | None = None
    latency: float = 0.0
    served_by: int = -1
    hedged: bool = False
    failovers: int = 0
    skewed: bool = False
    dead: list[int] = field(default_factory=list)
    error: BaseException | None = None


class ClusterRouter:
    """Scatter queries over the plan's replica sets, gather, merge exactly."""

    def __init__(
        self,
        n_workers: int,
        *,
        on_worker_dead: Callable[[int], None] | None = None,
        tenant: str | None = None,
    ):
        #: Worker slots the fleet runs; every epoch's plan keeps the count.
        self.n_workers = n_workers
        self.on_worker_dead = on_worker_dead
        #: Tenant id stamped into every score frame (``None`` omits it);
        #: workers of another tenant reject the frame outright.
        self.tenant = tenant
        #: Channels and endpoints are keyed by worker *slot* id (== shard
        #: id at replication 1).
        self._channels: dict[int, WorkerChannel] = {}
        self._endpoints: dict[int, tuple[str, int]] = {}
        #: Live per-worker in-flight request counts — the load signal
        #: for power-of-two-choices (latency medians adapt too slowly
        #: under bursts and would herd scatters onto one replica).
        self._inflight: dict[int, int] = {}
        registry.set_gauge("cluster.workers_live", 0)

    # ------------------------------------------------------------------ #
    # membership
    # ------------------------------------------------------------------ #
    def live_workers(self) -> list[int]:
        """Worker slot ids with an open channel, ascending."""
        return sorted(
            wid for wid, ch in self._channels.items() if not ch.closed
        )

    async def attach(self, worker_id: int, host: str, port: int) -> None:
        """Connect (or reconnect) the channel for worker slot ``worker_id``."""
        if not 0 <= worker_id < self.n_workers:
            raise ClusterError(
                f"worker {worker_id} out of range for "
                f"{self.n_workers} worker slots"
            )
        old = self._channels.pop(worker_id, None)
        if old is not None:
            await old.close()
        self._endpoints[worker_id] = (host, port)
        self._channels[worker_id] = await WorkerChannel.connect(host, port)
        registry.set_gauge("cluster.workers_live", len(self.live_workers()))

    async def detach(self, worker_id: int) -> None:
        """Drop the channel for ``worker_id`` (worker dead or evicted)."""
        channel = self._channels.pop(worker_id, None)
        if channel is not None:
            await channel.close()
        registry.set_gauge("cluster.workers_live", len(self.live_workers()))

    async def close(self) -> None:
        """Drop every channel."""
        for wid in list(self._channels):
            await self.detach(wid)

    async def ping(self, worker_id: int, *, timeout: float = 1.0) -> bool:
        """One heartbeat: True iff the worker answers in time."""
        channel = self._channels.get(worker_id)
        if channel is None or channel.closed:
            return False
        try:
            response = await asyncio.wait_for(
                channel.call({"op": "ping"}), timeout
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return False
        return response.get("ok") is True

    # ------------------------------------------------------------------ #
    # replica selection and the per-range RPC
    # ------------------------------------------------------------------ #
    def _hedge_delay(
        self, worker_id: int, *, same_worker: bool = False
    ) -> float | None:
        """Seconds after which to hedge ``worker_id``, or None (not yet).

        A sibling is asked after the worker's latency quantile; the
        ``same_worker`` one-shot only once the request has outlived the
        worker's slowest answer so far (see the module docstring).
        """
        hist = registry.histogram(f"cluster.worker.{worker_id}.rpc_seconds")
        if hist is None or hist.count < HEDGE_MIN_SAMPLES:
            return None
        return max(
            hist.max if same_worker else hist.quantile(HEDGE_QUANTILE),
            HEDGE_FLOOR_MS / 1000.0,
        )

    def _latency_estimate(self, worker_id: int) -> float:
        """Median RPC latency from this worker's own history (0 = unknown)."""
        hist = registry.histogram(f"cluster.worker.{worker_id}.rpc_seconds")
        if hist is None or hist.count == 0:
            return 0.0
        return hist.quantile(0.5)

    def _candidate_key(self, worker_id: int) -> tuple[int, float]:
        """(in-flight requests, median latency): less loaded, then faster."""
        return (
            self._inflight.get(worker_id, 0),
            self._latency_estimate(worker_id),
        )

    def _release(self, worker_id: int) -> None:
        left = self._inflight.get(worker_id, 0) - 1
        if left > 0:
            self._inflight[worker_id] = left
        else:
            self._inflight.pop(worker_id, None)

    def _order_candidates(self, worker_ids: Sequence[int]) -> list[int]:
        """Power-of-two-choices over live load, latency as tiebreak.

        Sample two replicas at random and lead with the one carrying
        fewer in-flight requests (faster latency median on a tie) — the
        classic load-balancing result: the random pair breaks herding
        (every scatter picking the one "best" replica), while the
        comparison still avoids the loaded or known-slow one.
        Remaining candidates follow in the same order as failover/hedge
        targets.
        """
        if len(worker_ids) <= 1:
            return list(worker_ids)
        pool = list(worker_ids)
        a, b = random.sample(pool, 2)
        first = a if self._candidate_key(a) <= self._candidate_key(b) else b
        rest = sorted(
            (w for w in pool if w != first), key=self._candidate_key
        )
        return [first, *rest]

    async def _one_shot(self, worker_id: int, message: dict) -> dict:
        """A hedge request on a fresh connection (closed after one use)."""
        host, port = self._endpoints[worker_id]
        channel = await WorkerChannel.connect(host, port)
        try:
            return await channel.call(message)
        finally:
            await channel.close()

    async def _call_range(
        self,
        shard_id: int,
        candidates: Sequence[int],
        message: dict,
        timeout: float,
    ) -> _RangeOutcome:
        """Scatter one range over its replica set; first answer wins.

        The attempt ladder: lead with the power-of-two choice; on
        ``ConnectionError`` or epoch skew fail over to the next untried
        sibling immediately; on slowness hedge a sibling after the
        leader's own latency quantile (or an even split of the budget
        before history arms).  When no sibling remains, fall back to
        the same-worker one-shot hedge the unreplicated router used.
        All attempts share one deadline and all losers are cancelled —
        exactly one response can represent the range.  Never raises;
        the gather side reads the outcome.
        """
        start = time.perf_counter()
        untried = deque(self._order_candidates(candidates))
        in_flight: dict[asyncio.Future, int] = {}
        outcome = _RangeOutcome()
        one_shot_sent = False
        launched = 0
        last_launch = start
        last_wid = -1

        def _launch_next() -> bool:
            nonlocal launched, last_launch, last_wid
            while untried:
                wid = untried.popleft()
                channel = self._channels.get(wid)
                if channel is None or channel.closed:
                    if channel is not None and wid not in outcome.dead:
                        outcome.dead.append(wid)
                    continue
                task = asyncio.ensure_future(channel.call(message))
                in_flight[task] = wid
                self._inflight[wid] = self._inflight.get(wid, 0) + 1
                launched += 1
                last_launch = time.perf_counter()
                last_wid = wid
                return True
            return False

        if not _launch_next():
            return outcome  # kind == "dead": no live replica at all
        try:
            while True:
                now = time.perf_counter()
                remaining = timeout - (now - start)
                if remaining <= 0:
                    break
                if not in_flight and not _launch_next():
                    break  # every attempt errored, nothing left to try
                # When does the *next* extra attempt launch?  A sibling
                # after the leader's hedge quantile (or an even split of
                # the budget before history arms); with no sibling left,
                # the same-worker one-shot once the request is slower
                # than anything the worker has answered.
                spawn_at = None
                if untried:
                    hedge_at = self._hedge_delay(last_wid)
                    if hedge_at is not None:
                        spawn_at = last_launch + hedge_at
                    else:
                        spawn_at = start + timeout * launched / (
                            launched + len(untried)
                        )
                elif not one_shot_sent:
                    hedge_at = self._hedge_delay(last_wid, same_worker=True)
                    if hedge_at is not None:
                        spawn_at = last_launch + hedge_at
                slice_ = remaining
                if spawn_at is not None:
                    slice_ = min(slice_, max(0.0, spawn_at - now))
                done, _pending = await asyncio.wait(
                    in_flight,
                    timeout=slice_,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if not done:
                    now = time.perf_counter()
                    if spawn_at is None or now < spawn_at:
                        continue  # pure deadline slice elapsed
                    if untried:
                        if _launch_next():
                            outcome.hedged = True
                            registry.inc("cluster.hedges_total")
                        continue
                    if not one_shot_sent:
                        one_shot_sent = True
                        outcome.hedged = True
                        registry.inc("cluster.hedges_total")
                        task = asyncio.ensure_future(
                            self._one_shot(last_wid, message)
                        )
                        in_flight[task] = last_wid
                        self._inflight[last_wid] = (
                            self._inflight.get(last_wid, 0) + 1
                        )
                    continue
                for task in done:
                    wid = in_flight.pop(task)
                    self._release(wid)
                    exc = task.exception()
                    if exc is None:
                        response = task.result()
                        if "error" in response:
                            if response.get("stale_epoch"):
                                # This replica ran ahead (or restarted
                                # onto a newer checkpoint); a sibling may
                                # still hold the requested epoch.
                                outcome.skewed = True
                                registry.inc("cluster.epoch_skew_total")
                                if _launch_next():
                                    outcome.failovers += 1
                                    registry.inc("cluster.failovers_total")
                                continue
                            outcome.kind = "rejected"
                            outcome.error = ClusterError(
                                f"range {shard_id} worker {wid} rejected "
                                f"the request: {response['error']}"
                            )
                            return outcome
                        latency = time.perf_counter() - start
                        registry.observe(
                            f"cluster.worker.{wid}.rpc_seconds", latency
                        )
                        registry.observe("cluster.rpc_seconds", latency)
                        outcome.kind = "ok"
                        outcome.response = response
                        outcome.latency = latency
                        outcome.served_by = wid
                        return outcome
                    if isinstance(exc, (ConnectionError, OSError)):
                        if wid not in outcome.dead:
                            outcome.dead.append(wid)
                        if _launch_next():
                            outcome.failovers += 1
                            registry.inc("cluster.failovers_total")
                        continue
                    outcome.kind = "rejected"
                    outcome.error = exc
                    return outcome
            # Budget exhausted, or every replica failed.
            if in_flight:
                outcome.kind = "deadline"
            elif outcome.skewed:
                outcome.kind = "skew"
            else:
                outcome.kind = "dead"
            return outcome
        finally:
            for task, wid in in_flight.items():
                task.cancel()
                self._release(wid)

    # ------------------------------------------------------------------ #
    # the scatter-gather search
    # ------------------------------------------------------------------ #
    async def search_batch(
        self,
        Qs: np.ndarray | Sequence[Sequence[float]],
        *,
        top: int | None = 10,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
        plan: ShardPlan,
    ) -> ClusterResult:
        """Scatter a scaled ``(q, k)`` batch, merge exact per-query top-k.

        ``Qs`` must already be comparison-space scaled (``q̂ Σ``) — the
        service layer does this once, exactly as
        ``EpochSnapshot.scale`` would.  ``probes`` asks every
        worker for the probe-bounded scan (each clips the same global
        candidate cells to its own rows); workers without a quantizer
        answer exactly, which only ever *adds* candidates to the merge.

        ``plan`` pins the epoch to scatter against: the service passes
        its request-entry handle's plan, so an epoch bump landing mid
        request never splits it across epochs.
        """
        Q = np.atleast_2d(np.asarray(Qs, dtype=np.float64))
        n_queries = Q.shape[0]
        timeout = (
            timeout_ms if timeout_ms is not None else WORKER_TIMEOUT_MS
        ) / 1000.0
        registry.inc("cluster.requests_total")
        message: dict = {
            "op": "score",
            "queries": Q,
            "epoch": plan.epoch,
        }
        if self.tenant is not None:
            message["tenant"] = self.tenant
        if top is not None:
            message["top"] = int(top)
        if threshold is not None:
            message["threshold"] = float(threshold)
        if probes is not None and not exact:
            message["probes"] = int(probes)
        if exact:
            message["exact"] = True

        missing_sids: set[int] = set()
        dead_wids: set[int] = set()
        responses: dict[int, dict] = {}
        shard_timings: dict[int, float] = {}
        served_by: dict[int, int] = {}
        hedged_sids: list[int] = []
        missed_sids: list[int] = []
        failover_sids: list[int] = []
        with span(
            "cluster.scatter",
            shards=plan.n_shards,
            queries=n_queries,
        ) as scatter:
            # Carry the request's trace identity in every score frame,
            # parented under this scatter span, so worker-process spans
            # reassemble into one cluster-wide trace.
            ctx = current_trace()
            if ctx is not None:
                message["trace"] = TraceContext(
                    ctx.trace_id,
                    scatter.span_id or ctx.parent_span_id,
                ).to_wire()
            calls: dict[int, asyncio.Future] = {}
            for sid in range(plan.n_shards):
                candidates = []
                for wid in plan.replica_set(sid):
                    channel = self._channels.get(wid)
                    if channel is None:
                        continue
                    if channel.closed:
                        dead_wids.add(wid)
                    else:
                        candidates.append(wid)
                if not candidates:
                    missing_sids.add(sid)
                    continue
                calls[sid] = asyncio.ensure_future(
                    self._call_range(sid, candidates, message, timeout)
                )
            if calls:
                await asyncio.wait(calls.values())
            for sid, task in calls.items():
                outcome: _RangeOutcome = task.result()
                dead_wids.update(outcome.dead)
                if outcome.hedged:
                    hedged_sids.append(sid)
                if outcome.failovers:
                    failover_sids.append(sid)
                if outcome.kind == "ok":
                    responses[sid] = outcome.response
                    shard_timings[sid] = outcome.latency * 1000.0
                    served_by[sid] = outcome.served_by
                elif outcome.kind == "deadline":
                    # Slow is not dead: leave eviction to the heartbeat.
                    registry.inc("cluster.deadline_misses_total")
                    missing_sids.add(sid)
                    missed_sids.append(sid)
                elif outcome.kind == "skew":
                    # No replica still holds this epoch — its rows are
                    # missing from *this epoch's* answer, but the
                    # workers are healthy.
                    missing_sids.add(sid)
                elif outcome.kind == "dead":
                    missing_sids.add(sid)
                else:  # "rejected": a structural protocol error
                    raise outcome.error
            for wid in sorted(dead_wids):
                await self.detach(wid)
                if self.on_worker_dead is not None:
                    self.on_worker_dead(wid)
            # Flag degraded ranges on the scatter span itself, so the
            # assembled trace names hedges, failovers, and deadline
            # misses inline.
            if hedged_sids:
                scatter.set_attr("hedged", sorted(hedged_sids))
            if failover_sids:
                scatter.set_attr("failovers", sorted(failover_sids))
            if missed_sids:
                scatter.set_attr("deadline_missed", sorted(missed_sids))
            if missing_sids:
                scatter.set_attr("missing_shards", sorted(missing_sids))

        for sid, response in responses.items():
            if response.get("shard") != sid:
                raise ClusterError(
                    f"range {sid} answered as shard {response.get('shard')}"
                )
            if int(response.get("epoch", -1)) != plan.epoch:
                raise ClusterError(
                    f"range {sid} serves epoch {response.get('epoch')} but "
                    f"the plan covers epoch {plan.epoch}"
                )

        k = int(top) if top is not None else max(1, plan.n_documents)
        answered = sorted(responses)  # ascending range id == document order
        results: list[list[tuple[int, float]]] = []
        with span("cluster.merge", shards=len(answered), queries=n_queries):
            for qi in range(n_queries):
                per_shard = [responses[sid]["results"][qi] for sid in answered]
                # ``top=0`` asks for nothing, as on a single node.
                results.append(merge_topk(per_shard, k) if k > 0 else [])

        partial = bool(missing_sids)
        if partial:
            registry.inc("cluster.partial_responses")
        missing = [
            plan.shard(sid).as_pair() for sid in sorted(missing_sids)
        ]
        return ClusterResult(
            results=results,
            partial=partial,
            missing=[(lo, hi) for lo, hi in missing],
            epoch=plan.epoch,
            shard_timings=shard_timings,
            hedged=sorted(hedged_sids),
            deadline_missed=sorted(missed_sids),
            served_by=served_by,
            failovers=sorted(failover_sids),
        )

    # ------------------------------------------------------------------ #
    # observability scatter ops (stats / trace)
    # ------------------------------------------------------------------ #
    async def _scatter_op(
        self, message: dict, *, timeout: float
    ) -> dict[int, dict]:
        """Broadcast one op to every live worker; best-effort gather.

        A worker that fails or times out is simply absent from the
        result — observability must never take the serving path down.
        """
        wids = self.live_workers()

        async def _one(wid: int) -> dict | None:
            channel = self._channels.get(wid)
            if channel is None or channel.closed:
                return None
            try:
                return await asyncio.wait_for(
                    channel.call(dict(message)), timeout
                )
            except (asyncio.TimeoutError, ConnectionError, OSError):
                return None

        answers = await asyncio.gather(*(_one(wid) for wid in wids))
        return {
            wid: response
            for wid, response in zip(wids, answers)
            if isinstance(response, dict) and "error" not in response
        }

    async def broadcast_bump(self, plan: ShardPlan) -> dict[int, int]:
        """Tell every live worker to remap onto ``plan``'s checkpoint.

        Returns ``{worker_id: acked_epoch}`` for workers that remapped
        (or already held the epoch).  A worker that fails, rejects, or
        times out is simply absent — the epoch
        only *publishes* once a quorum of every range's replicas acked
        (the supervisor tracks that), and the fleet's next ``advance``
        re-bumps laggards.  The deadline (:data:`BUMP_TIMEOUT_S`) is
        generous: a remap is O(header) mmap opens plus one shard's
        coordinate materialization.
        """
        responses = await self._scatter_op(
            {"op": BUMP_OP, "plan": plan.to_json()}, timeout=BUMP_TIMEOUT_S
        )
        acked = {
            wid: int(response["epoch"])
            for wid, response in responses.items()
            if response.get("ok") and response.get("epoch") == plan.epoch
        }
        registry.inc("cluster.bump_broadcasts_total")
        if len(acked) < len(self.live_workers()):
            registry.inc("cluster.bump_laggards_total")
        return acked

    async def fetch_stats(self, *, timeout: float = 2.0) -> dict[int, dict]:
        """Every live worker's registry snapshot, keyed by worker id."""
        responses = await self._scatter_op({"op": "stats"}, timeout=timeout)
        return {
            wid: response["snapshot"]
            for wid, response in responses.items()
            if isinstance(response.get("snapshot"), dict)
        }

    async def fetch_trace(
        self, trace_id: str, *, timeout: float = 2.0
    ) -> dict[int, list[dict]]:
        """Every live worker's spans for ``trace_id``, keyed by worker id."""
        responses = await self._scatter_op(
            {"op": "trace", "trace_id": trace_id}, timeout=timeout
        )
        return {
            wid: [s for s in response.get("spans", []) if isinstance(s, dict)]
            for wid, response in responses.items()
            if isinstance(response.get("spans"), list)
        }
