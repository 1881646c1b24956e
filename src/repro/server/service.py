"""The query service: admission → quotas → micro-batching → epoch state.

:class:`QueryService` is the transport-independent core of the server —
the HTTP front end (:mod:`repro.server.http`), the benchmarks, and the
integration tests all drive this one object.  Since the multi-tenant
refactor it serves N named tenants, each resolved through an
:class:`~repro.tenancy.registry.IndexRegistry`; constructing it from a
bare :class:`~repro.server.state.ServingState` wraps the state in a
one-tenant registry, so single-tenant serving is the ``tenant=None``
special case of the same code path:

* :meth:`search` pins the request's tenant (lazily attaching a cold
  one), admits it against the global bounded queue *and* the tenant's
  quota share (fast 429-style rejection on overload — per-tenant
  ``reason="tenant_quota"`` when one hot tenant is over budget),
  enqueues it with that tenant's work-conserving micro-batcher (scored
  at once on an idle server, coalesced with whatever piled up behind a
  flush in flight otherwise), and awaits its row of the score block —
  results element-identical to ``LSIRetrieval.search``;
* :meth:`add` serializes document additions through the tenant's
  epoch-swapped :class:`~repro.server.state.ServingState` (fold-in →
  §4.3-policy consolidation via the index manager) on an executor
  thread, so the event loop keeps serving while the SVD machinery runs;
* :meth:`drain` is graceful shutdown: flip the admission latch (new
  work → 503), flush every tenant's queued requests, stop the
  schedulers and their scoring threads.

Every stage reports through :data:`repro.obs.metrics.registry` under
``server.*`` plus per-tenant ``tenant.<id>.*`` counters/gauges — all
visible via ``/stats`` or ``python -m repro stats``.

:class:`ServiceBase` is the surface the HTTP front end calls and the
one definition of what every service shares — the slow-query log, the
``/stats`` / ``/metrics`` / ``/trace`` / ``/tenants`` payloads, and the
pin → admit → quota → release bracket.  The cluster front ends
(:class:`~repro.cluster.service.ClusterService`,
:class:`~repro.tenancy.cluster.TenantClusterService`) inherit it and
add only how *they* answer ``search`` / ``add`` / ``healthz``.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ReproError
from repro.obs.aggregate import label_snapshots
from repro.obs.export import SCHEMA
from repro.obs.metrics import registry
from repro.obs.prom import render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace_context import current_trace
from repro.obs.tracing import recent_spans, spans_for_trace
from repro.server.admission import AdmissionController
from repro.server.batching import MicroBatcher, SearchRequest
from repro.server.state import ServingState
from repro.tenancy.quotas import TenantQuotas
from repro.tenancy.registry import IndexRegistry

__all__ = ["ServerConfig", "ServiceBase", "QueryService"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one service instance (CLI flags map 1:1 onto these).

    There is no batching window to tune: the scheduler is
    work-conserving (it flushes whatever is queued the moment the
    scorer is free), so batches form only from requests that arrive
    while a flush is in flight.  ``max_batch`` caps one flush — it is
    the bound on the ``(q, n)`` score block, not a target.
    """

    max_batch: int = 32
    queue_depth: int = 256
    shards: int = 1
    workers: int | None = None
    default_timeout_ms: float | None = None
    query_cache_size: int = 256
    #: Default probe count for requests that don't specify one.  ``None``
    #: keeps the exact exhaustive scan as the default; requests opt into
    #: the ANN path with ``probes``, or force exactness with ``exact``.
    default_probes: int | None = None
    #: Slow-query log threshold (milliseconds); <= 0 disables the log.
    slow_ms: float = 500.0
    #: JSONL file for slow-query records (``None`` keeps them in-memory).
    slowlog_path: str | None = None
    #: Bound on retained slow-query records (memory and on-disk).
    slowlog_max_records: int = 256


class ServiceBase:
    """The service surface ``server.http`` calls, and its shared parts.

    A concrete service supplies ``start`` / ``drain`` / ``search`` /
    ``add`` / ``healthz``; everything else the HTTP routes need is
    defined here, once.  Two hooks adapt the shared parts to a front
    end with worker processes behind it: :meth:`_fleets` names the
    routers whose workers' metrics and spans federate into ``/metrics``
    and ``/trace``, and :meth:`_slowlogs` names the slow-query logs
    ``/stats`` tails.
    """

    #: How this process's own registry is labelled in the Prometheus
    #: exposition and (in front of worker fleets) in assembled traces.
    process_label = "server"
    #: Counter bumped for every slow-log record.
    slow_counter = "server.slow_queries_total"

    def __init__(
        self,
        config,
        *,
        registry: IndexRegistry | None = None,
        queue_depth: int = 0,
        slowlog: bool = True,
    ):
        self.config = config
        self.slowlog = (
            SlowQueryLog(
                config.slowlog_path,
                threshold_ms=config.slow_ms,
                max_records=config.slowlog_max_records,
            )
            if slowlog
            else None
        )
        #: The tenant registry, on services that route by tenant; with
        #: it come the global bounded queue and its per-tenant shares.
        self.registry = registry
        if registry is not None:
            self.admission = AdmissionController(queue_depth)
            self.quotas = TenantQuotas(queue_depth)
            self.quotas.ensure(registry.tenant_ids)

    @property
    def draining(self) -> bool:
        """Whether the service has begun (or finished) draining."""
        return self.admission.draining

    @contextlib.contextmanager
    def _admitted(self, tenant: str | None) -> Iterator[tuple[str, object]]:
        """Pin the tenant, then claim a global slot and a quota slot.

        Yields ``(tenant_id, hosted_object)``.  The tenant stays pinned
        (so an LRU eviction decided mid-flight detaches only afterwards)
        and both slots stay held until the block exits; a quota
        rejection gives the global slot back before it propagates.
        """
        with self.registry.pin(tenant) as (tid, target):
            self.quotas.ensure(self.registry.tenant_ids)
            self.admission.admit()
            try:
                self.quotas.admit(tid)
            except BaseException:
                self.admission.release()
                raise
            try:
                yield tid, target
            finally:
                self.quotas.release(tid)
                self.admission.release()

    def _record_slow(
        self,
        elapsed_s: float,
        *,
        top: int | None,
        probes: int | None,
        exact: bool,
        tenant: str | None = None,
        **evidence,
    ) -> None:
        """Dump an over-threshold request's trace evidence to the slow log.

        ``probes`` / ``exact`` are the request's arguments; the record
        holds the probe count the query actually ran with — the server
        default when the request named none, ``None`` for an exact scan.
        ``evidence`` is whatever else the service knows about where the
        time went (queue depth, the request's own queue wait and the size
        of the batch it was scored in; per-shard timings, hedges, misses).
        """
        if not self.slowlog.is_slow(elapsed_s):
            return
        registry.inc(self.slow_counter)
        ctx = current_trace()
        trace_id = ctx.trace_id if ctx is not None else None
        if exact:
            probes = None
        elif probes is None:
            probes = self.config.default_probes
        entry = {
            "ts": time.time(),
            "trace_id": trace_id,
            "duration_ms": elapsed_s * 1000.0,
            "top": top,
            "probes": probes,
            **({"tenant": tenant} if tenant is not None else {}),
            **evidence,
        }
        if trace_id is not None:
            # This process's spans for the trace; worker spans stay
            # fetchable via /trace.
            entry["spans"] = [
                s.to_dict() for s in spans_for_trace(trace_id)
            ]
        self.slowlog.record(entry)

    # ------------------------------------------------------------------ #
    def _fleets(self) -> list[tuple[str | None, object]]:
        """``(tenant_id or None, router)`` per worker fleet behind this
        front end; none for a service that scores in-process."""
        return []

    def _slowlogs(self) -> list[SlowQueryLog]:
        """The slow-query logs ``/stats`` tails."""
        return [self.slowlog]

    def stats(self) -> dict:
        """The observability snapshot for ``/stats`` (obs-export schema)."""
        slow = [e for log in self._slowlogs() for e in log.recent(20)]
        slow.sort(key=lambda e: e.get("ts", 0.0))
        return {
            "schema": SCHEMA,
            "server": self.healthz(),
            "metrics": registry.snapshot(),
            "spans": [s.to_dict() for s in recent_spans(50)],
            "slow_queries": slow[-20:],
        }

    async def tenants(self) -> dict:
        """Registry + quota status for ``/tenants``."""
        if self.registry is None:
            raise ReproError("this service has no tenant registry")
        return {
            "tenants": self.registry.describe(),
            "max_resident": self.registry.max_resident,
            "quotas": self.quotas.describe(),
        }

    async def metrics(self) -> dict:
        """The registry dump for ``/metrics``, fleets federated in.

        One flat ``{counters, gauges, histograms}`` JSON: this process's
        registry verbatim, every live worker's shipped registry under a
        ``shard.<sid>.`` (``tenant.<id>.shard.<sid>.``) prefix.
        """
        merged = registry.snapshot()
        for tid, router in self._fleets():
            prefix = "shard." if tid is None else f"tenant.{tid}.shard."
            merged = label_snapshots(
                merged, await router.fetch_stats(), prefix=prefix
            )
        return merged

    async def metrics_prom(self) -> str:
        """Prometheus text exposition for ``/metrics?format=prom``.

        This process's registry renders with a ``worker=<process_label>``
        label and each live shard worker's with ``worker="<sid>"`` (plus
        ``tenant``) — one family per metric, labelled samples beneath.
        """
        series = [({"worker": self.process_label}, registry.snapshot())]
        for tid, router in self._fleets():
            worker_snaps = await router.fetch_stats()
            for sid in sorted(worker_snaps):
                labels = {"worker": str(sid)}
                if tid is not None:
                    labels["tenant"] = tid
                series.append((labels, worker_snaps[sid]))
        return render_prometheus(series)

    async def trace(self, trace_id: str) -> dict:
        """One request's spans for ``/trace?id=``: local + worker spans.

        Worker spans are fetched over the ``trace`` wire op and tagged
        with their shard id (``<tenant>:<sid>`` across tenant fleets);
        the whole set sorts by start time, so the JSONL export reads as
        one coherent distributed timeline.
        """
        spans = [s.to_dict() for s in spans_for_trace(trace_id)]
        fleets = self._fleets()
        workers: list[str] = []
        for tid, router in fleets:
            remote = await router.fetch_trace(trace_id)
            for sid, shipped in sorted(remote.items()):
                label = str(sid) if tid is None else f"{tid}:{sid}"
                workers.append(label)
                for record in shipped:
                    record["worker"] = label
                spans.extend(shipped)
        if fleets:
            for record in spans:
                record.setdefault("worker", self.process_label)
            spans.sort(key=lambda r: float(r.get("start", 0.0)))
        return {"trace_id": trace_id, "workers": workers, "spans": spans}


class QueryService(ServiceBase):
    """Admission-controlled, micro-batched query service over N tenants."""

    def __init__(
        self,
        state: ServingState | IndexRegistry,
        config: ServerConfig | None = None,
    ):
        config = config or ServerConfig()
        super().__init__(
            config,
            registry=(
                state
                if isinstance(state, IndexRegistry)
                else IndexRegistry.single(state)
            ),
            queue_depth=config.queue_depth,
        )
        #: One scheduler per resident tenant, created on first query.
        self._batchers: dict[str, MicroBatcher] = {}
        self._add_lock = asyncio.Lock()
        self._started = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self.registry.add_detach_hook(self._on_detach)

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> ServingState:
        """The default tenant's state (single-tenant back-compat)."""
        return self.registry.resolve(None)[1]

    @property
    def multi_tenant(self) -> bool:
        """Whether the registry hosts more than one tenant."""
        return len(self.registry.tenant_ids) > 1

    def _batcher_for(self, tenant_id: str, state: ServingState) -> MicroBatcher:
        """The tenant's scheduler, created (and started) on demand."""
        batcher = self._batchers.get(tenant_id)
        if batcher is None or batcher.state is not state:
            # New tenant, or the tenant was detached and re-attached with
            # a fresh state (the old batcher died with the old state).
            batcher = MicroBatcher(
                state,
                max_batch=self.config.max_batch,
                shards=self.config.shards,
                workers=self.config.workers,
            )
            self._batchers[tenant_id] = batcher
            if self._started:
                batcher.start()
        return batcher

    def _on_detach(self, tenant_id: str, state: ServingState) -> None:
        """Registry detach hook: retire the tenant's scheduler.

        Detach only happens with zero pins, and every queued request
        holds a pin until its future resolves — so the batcher's queue
        is empty and its scoring thread idle here: stopping it drops no
        work and joins the thread at once.
        """
        batcher = self._batchers.pop(tenant_id, None)
        if batcher is None or self._loop is None or self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(batcher.stop())
        )

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Start the batching schedulers (idempotent)."""
        if not self._started:
            self._loop = asyncio.get_running_loop()
            for batcher in self._batchers.values():
                batcher.start()
            self._started = True
            registry.set_gauge("server.draining", 0.0)

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish queued work, stop."""
        self.admission.begin_drain()
        for batcher in list(self._batchers.values()):
            await batcher.drain()
        for batcher in list(self._batchers.values()):
            await batcher.stop()
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
        tenant: str | None = None,
    ) -> dict:
        """One ranked search, answered from a coalesced batch.

        ``tenant`` routes the query (``None`` means the default/sole
        tenant); an unknown id raises
        :class:`~repro.errors.UnknownTenantError` before any admission
        work.  The tenant stays pinned until the response resolves, so
        an LRU eviction decided mid-flight detaches only after this (and
        every other in-flight) query drains.  ``probes`` bounds the scan
        to that many coarse cells (falling back to
        ``config.default_probes``, then to the exact scan);
        ``exact=True`` overrides any default.  Raises
        :class:`~repro.errors.ServerOverloadError` when the bounded
        queue is full, the tenant is over its quota share
        (``reason="tenant_quota"``), or the service is draining, and
        :class:`~repro.errors.DeadlineExceededError` when the request's
        deadline expires before its batch is scored.
        """
        registry.inc("server.requests_total")
        with self._admitted(tenant) as (tid, state):
            t0 = time.perf_counter()
            try:
                request = SearchRequest(
                    query=query,
                    top=top,
                    threshold=threshold,
                    probes=(
                        probes if probes is not None
                        else self.config.default_probes
                    ),
                    exact=exact,
                    deadline=AdmissionController.deadline_from(
                        timeout_ms
                        if timeout_ms is not None
                        else self.config.default_timeout_ms
                    ),
                    trace=current_trace(),
                    future=asyncio.get_running_loop().create_future(),
                )
                self._batcher_for(tid, state).submit(request)
                result = await request.future
                if tenant is not None or self.multi_tenant:
                    result["tenant"] = tid
                self._record_slow(
                    time.perf_counter() - t0,
                    top=top,
                    probes=probes,
                    exact=exact,
                    tenant=tid,
                    queue_depth=self.admission.pending,
                    batch_size=request.batch_size,
                    queue_wait_ms=request.queue_wait_ms,
                )
                return result
            finally:
                registry.observe(
                    "server.request_seconds", time.perf_counter() - t0
                )

    async def add(
        self,
        texts: Sequence[str],
        doc_ids: Sequence[str] | None = None,
        *,
        tenant: str | None = None,
    ) -> dict:
        """Add documents live; returns the new epoch description.

        Updates are serialized (one writer at a time) and run on the
        loop's default executor — never a batcher's scoring thread, so a
        writer cannot queue behind the scorer (or the scorer behind it);
        readers never wait — in-flight batches finish against their
        pinned epoch, later batches see the new one.
        Lazily attached tenants are read-only mmap opens, so ``/add``
        against one raises (HTTP 400) like any saved-model server.
        """
        registry.inc("server.adds_total")
        t0 = time.perf_counter()
        with self.registry.pin(tenant) as (_tid, state):
            async with self._add_lock:
                loop = asyncio.get_running_loop()
                result = await loop.run_in_executor(
                    None, state.add_texts, list(texts), doc_ids
                )
        registry.observe("server.add_seconds", time.perf_counter() - t0)
        return result

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Liveness/readiness summary for ``/healthz``."""
        base = {
            "status": "draining" if self.admission.draining else "ok",
            "draining": self.admission.draining,
            "queue_depth": self.admission.pending,
            "queue_capacity": self.admission.queue_depth,
            "default_probes": self.config.default_probes,
            "slowlog": self.slowlog.describe(),
        }
        if self.multi_tenant:
            base["tenants"] = self.registry.describe()
            base["max_resident"] = self.registry.max_resident
            return base
        snapshot = self.state.current()
        base.update(
            {
                "epoch": snapshot.epoch,
                "n_documents": snapshot.n_documents,
                "writable": self.state.writable,
                "ann": snapshot.ann is not None,
            }
        )
        return base
