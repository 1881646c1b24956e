"""The front end: admit → quota → pin → backend → label → slow log.

:class:`QueryService` is the one service the HTTP front end
(:mod:`repro.server.http`), the benchmarks and the integration tests
drive.  It always owns an
:class:`~repro.tenancy.registry.IndexRegistry` — a bare state or fleet
is wrapped in a one-tenant registry, so single-tenant serving is the
``tenant=None`` special case of the same code path — together with the
global :class:`~repro.server.admission.AdmissionController`, its
per-tenant :class:`~repro.tenancy.quotas.TenantQuotas` shares and the
one :class:`~repro.obs.slowlog.SlowQueryLog`.  What the registry hosts
is a *backend*, and there are exactly two:

* the in-process scorer — a :class:`~repro.server.state.ServingState`,
  which owns its scheduler (a query is scored at once on an idle
  server, coalesced with whatever piled up behind a flush in flight
  otherwise; results element-identical to ``LSIRetrieval.search``) and,
  over a store, the store's owner;
* the fleet — a :class:`~repro.cluster.service.ClusterService`, which
  scatters over shard worker processes.

Both answer ``start()`` / ``drain()`` / ``search(...) → (payload,
slow-log evidence)`` / ``add(...)`` / ``healthz()``, and each starts
and stops its own writer, so the front end drives whatever the registry
pins without asking which it is; everything a request passes on the way
there is here, once:

* :meth:`search` admits the request against the global bounded queue
  *and* its tenant's quota share (fast 429-style rejection on overload
  — per-tenant ``reason="tenant_quota"`` when one hot tenant is over
  budget), then pins the tenant (lazily attaching a cold one), asks
  the backend, labels the reply with its tenant and dumps an
  over-threshold request's evidence to the slow log;
* :meth:`add` hands the documents to the tenant's backend, which
  serializes its own writers (one tenant's consolidation never blocks
  another's ``/add``);
* :meth:`drain` is graceful shutdown: flip the admission latch (new
  work → 503), then drain every resident backend (a writer's final
  flush included).

Every stage reports through :data:`repro.obs.metrics.registry` under
``server.*`` plus per-tenant ``tenant.<id>.*`` counters/gauges — all
visible via ``/stats`` or ``python -m repro stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.obs.aggregate import label_snapshots
from repro.obs.export import SCHEMA
from repro.obs.metrics import registry
from repro.obs.prom import render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace_context import current_trace
from repro.obs.tracing import recent_spans, spans_for_trace
from repro.server.admission import AdmissionController
from repro.tenancy.quotas import TenantQuotas
from repro.tenancy.registry import IndexRegistry

__all__ = ["ServerConfig", "QueryService"]


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one front end (CLI flags map 1:1 onto these).

    A backend brings its own: the in-process scorer its ``max_batch``
    (:class:`~repro.server.state.ServingState`), a fleet its
    :class:`~repro.cluster.service.ClusterConfig`.
    """

    queue_depth: int = 256
    #: Slow-query log threshold (milliseconds); <= 0 disables the log.
    slow_ms: float = 500.0
    #: JSONL file for slow-query records (``None`` keeps them in-memory).
    slowlog_path: str | None = None


class QueryService:
    """The admission-controlled front end over N tenants' backends."""

    def __init__(self, hosted, config: ServerConfig | None = None):
        """``hosted`` is an :class:`IndexRegistry`, or one bare backend
        (a :class:`~repro.server.state.ServingState` or a fleet) to host
        as the sole tenant."""
        self.config = config = config or ServerConfig()
        self.registry = (
            hosted
            if isinstance(hosted, IndexRegistry)
            else IndexRegistry.single(hosted)
        )
        self.admission = AdmissionController(config.queue_depth)
        self.quotas = TenantQuotas(config.queue_depth)
        self.quotas.ensure(self.registry.tenant_ids)
        self.slowlog = SlowQueryLog(
            config.slowlog_path, threshold_ms=config.slow_ms
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self.registry.add_detach_hook(self._on_detach)

    # ------------------------------------------------------------------ #
    @property
    def draining(self) -> bool:
        """Whether the service has begun (or finished) draining."""
        return self.admission.draining

    def _resident(self) -> dict[str, object]:
        """``tenant_id -> backend`` for resident tenants (no attach)."""
        return dict(sorted(self.registry.resident_states().items()))

    def _fleets(self) -> list[tuple[str | None, object]]:
        """``(shard-label tenant, fleet)`` per resident worker fleet —
        the backends not scored in this process, whose workers' metrics
        and spans federate into ``/metrics`` and ``/trace`` through the
        fleet's ``router``.  The sole eager tenant's shards go
        unlabelled."""
        sole = self.registry.sole_tenant
        return [
            (None if tid == sole else tid, backend)
            for tid, backend in self._resident().items()
            if hasattr(backend, "router")
        ]

    def _on_detach(self, tenant_id: str, backend) -> None:
        """Registry detach hook: retire the evicted tenant's backend.

        Detach only happens with zero pins, and every in-flight request
        holds a pin until its reply resolves — so a scheduler's queue is
        empty here, and no query loses its workers; the drain runs as a
        task off the serving path.  A re-attach loads a new backend,
        which starts with its first query.
        """
        if self._loop is None or self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(backend.drain())
        )

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Ready the front end and start every resident backend
        (idempotent): a fleet spawns its workers, an in-process scorer
        its scheduler, and either starts its writer.  A cold tenant's
        backend starts with its first query."""
        self._loop = asyncio.get_running_loop()
        for backend in self._resident().values():
            await backend.start()
        registry.set_gauge("server.draining", 0.0)

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish queued work, stop
        every resident backend (a writer closes with a final flush)."""
        self.admission.begin_drain()
        for backend in self._resident().values():
            await backend.drain()

    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _admitted(self, tenant: str | None) -> Iterator[tuple[str, object]]:
        """Resolve the tenant, claim a global slot and a quota slot, then
        pin the tenant.

        Yields ``(tenant_id, backend)``.  An unknown tenant fails before
        any admission work, and a rejected request attaches nothing: only
        the pin attaches a cold tenant (and may evict a resident one).
        The tenant stays pinned (so an LRU eviction decided mid-flight
        detaches only afterwards) and both slots stay held until the
        block exits; a quota rejection gives the global slot back before
        it propagates.
        """
        tid = self.registry.resolve_id(tenant)
        self.quotas.ensure(self.registry.tenant_ids)
        self.admission.admit()
        try:
            self.quotas.admit(tid)
        except BaseException:
            self.admission.release()
            raise
        try:
            with self.registry.pin(tid) as (_, backend):
                yield tid, backend
        finally:
            self.quotas.release(tid)
            self.admission.release()

    def _record_slow(self, elapsed_s: float, **evidence) -> None:
        """Dump an over-threshold request's trace evidence to the slow log.

        ``evidence`` is what the front end and the backend know about
        where the time went: the tenant, the ``top`` and the probe count
        the query actually ran with, the queue depth, and the backend's
        own part (the request's queue wait and the size of the batch it
        was scored in; per-shard timings, hedges, misses).
        """
        if not self.slowlog.is_slow(elapsed_s):
            return
        registry.inc("server.slow_queries_total")
        ctx = current_trace()
        trace_id = ctx.trace_id if ctx is not None else None
        entry = {
            "ts": time.time(),
            "trace_id": trace_id,
            "duration_ms": elapsed_s * 1000.0,
            **evidence,
        }
        if trace_id is not None:
            # This process's spans for the trace; worker spans stay
            # fetchable via /trace.
            entry["spans"] = [
                s.to_dict() for s in spans_for_trace(trace_id)
            ]
        self.slowlog.record(entry)

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
        """One ranked search, answered by the tenant's backend.

        ``tenant`` routes the query (``None`` means the default/sole
        tenant); an unknown id raises
        :class:`~repro.errors.UnknownTenantError` before any admission
        work.  The tenant stays pinned until the response resolves, so
        an LRU eviction decided mid-flight detaches only after this (and
        every other in-flight) query drains; a cold tenant's backend
        starts with this first query (a fleet spawns its workers).
        ``probes`` bounds the scan to that many coarse cells (``None``:
        the exact scan); ``exact=True`` overrides it.  Raises
        :class:`~repro.errors.ServerOverloadError` when the bounded
        queue is full, the tenant is over its quota share
        (``reason="tenant_quota"``), or the service is draining, and
        :class:`~repro.errors.DeadlineExceededError` when the request's
        deadline expires before it is scored.
        """
        registry.inc("server.requests_total")
        with self._admitted(tenant) as (tid, backend):
            t0 = time.perf_counter()
            try:
                payload, evidence = await backend.search(
                    query,
                    top=top,
                    threshold=threshold,
                    timeout_ms=timeout_ms,
                    probes=probes,
                    exact=exact,
                )
                if tenant is not None or self.registry.sole_tenant is None:
                    payload["tenant"] = tid
                self._record_slow(
                    time.perf_counter() - t0,
                    top=top,
                    probes=None if exact else probes,
                    tenant=tid,
                    queue_depth=self.admission.pending,
                    **evidence,
                )
                return payload
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
        """Add documents live through the tenant's backend.

        In process the reply is the new epoch description: writers to
        one tenant are serialized and run off the loop (over a store, on
        its owner's thread) while readers keep being served.  Lazily
        attached tenants are read-only mmap opens, so ``/add`` against
        one raises (HTTP 400) like any read-only server.  A fleet
        acknowledges once its store owner (``ClusterService.writer``)
        has the batch durable, or refuses read-only
        (:class:`~repro.errors.ClusterReadOnlyError`, HTTP 403).
        """
        registry.inc("server.adds_total")
        t0 = time.perf_counter()
        with self.registry.pin(tenant) as (_, backend):
            result = await backend.add(texts, doc_ids)
        registry.observe("server.add_seconds", time.perf_counter() - t0)
        return result

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Liveness/readiness summary for ``/healthz``.

        The front end's own block (admission queue, drain latch, slow
        log) plus the backends': the sole eager tenant's ``healthz()``
        flattened into the top level, otherwise the tenant table and one
        block per resident tenant under ``fleets``.  Sync: a fleet reads
        its supervisor tables without touching worker sockets.
        """
        sole = self.registry.sole_tenant
        blocks = {
            tid: backend.healthz() for tid, backend in self._resident().items()
        }
        if sole is not None:
            payload = dict(blocks[sole])
        else:
            payload = {
                "tenants": self.registry.describe(),
                "max_resident": self.registry.max_resident,
                "fleets": blocks,
            }
        if self.draining:
            status = "draining"
        elif any(b.get("status") == "degraded" for b in blocks.values()):
            status = "degraded"
        else:
            status = "ok"
        payload.update(
            {
                "status": status,
                "draining": self.draining,
                "queue_depth": self.admission.pending,
                "queue_capacity": self.admission.queue_depth,
                "slowlog": self.slowlog.describe(),
            }
        )
        return payload

    def stats(self) -> dict:
        """The observability snapshot for ``/stats`` (obs-export schema)."""
        return {
            "schema": SCHEMA,
            "server": self.healthz(),
            "metrics": registry.snapshot(),
            "spans": [s.to_dict() for s in recent_spans(50)],
            "slow_queries": self.slowlog.recent(20),
        }

    async def tenants(self) -> dict:
        """Registry + quota status for ``/tenants``."""
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
        for tid, fleet in self._fleets():
            prefix = "shard." if tid is None else f"tenant.{tid}.shard."
            merged = label_snapshots(
                merged, await fleet.router.fetch_stats(), prefix=prefix
            )
        return merged

    async def metrics_prom(self) -> str:
        """Prometheus text exposition for ``/metrics?format=prom``.

        This process's registry renders with a ``worker`` label —
        ``router`` in front of worker fleets, ``server`` otherwise — and
        each live shard worker's with ``worker="<sid>"`` (plus
        ``tenant``): one family per metric, labelled samples beneath.
        """
        fleets = self._fleets()
        series = [
            ({"worker": "router" if fleets else "server"}, registry.snapshot())
        ]
        for tid, fleet in fleets:
            worker_snaps = await fleet.router.fetch_stats()
            for sid in sorted(worker_snaps):
                labels = {"worker": str(sid)}
                if tid is not None:
                    labels["tenant"] = tid
                series.append((labels, worker_snaps[sid]))
        return render_prometheus(series)

    async def trace(self, trace_id: str) -> dict:
        """One request's spans for ``/trace?id=``: local + worker spans.

        Worker spans are fetched over the ``trace`` wire op and tagged
        with their shard id (``<tenant>:<sid>`` across tenant fleets),
        this process's with ``router``; the whole set sorts by start
        time, so the JSONL export reads as one coherent distributed
        timeline.
        """
        spans = [s.to_dict() for s in spans_for_trace(trace_id)]
        fleets = self._fleets()
        workers: list[str] = []
        for tid, fleet in fleets:
            remote = await fleet.router.fetch_trace(trace_id)
            for sid, shipped in sorted(remote.items()):
                label = str(sid) if tid is None else f"{tid}:{sid}"
                workers.append(label)
                for record in shipped:
                    record["worker"] = label
                spans.extend(shipped)
        if fleets:
            for record in spans:
                record.setdefault("worker", "router")
            spans.sort(key=lambda r: float(r.get("start", 0.0)))
        return {"trace_id": trace_id, "workers": workers, "spans": spans}
