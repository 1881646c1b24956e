"""Multi-tenant cluster front end: N per-tenant fleets, one registry.

:class:`TenantClusterService` is the third
:class:`~repro.server.service.ServiceBase` the HTTP front end drives,
routing every request to one of N named
:class:`~repro.cluster.service.ClusterService` fleets — each
a data directory with its own checkpoints, shard plan, and worker
processes.  Fleets attach lazily through the same
:class:`~repro.tenancy.registry.IndexRegistry` discipline the
single-process server uses: the first query to a cold tenant constructs
its service and spawns its workers; past ``max_resident``, the
least-recently-used fleet is drained (SIGTERM, in-flight queries
finished first — the registry defers detach until the tenant's pin
count reaches zero) and its processes reaped.

Isolation mirrors the single-process service: a global admission queue
bounds the front end, :class:`~repro.tenancy.quotas.TenantQuotas`
carves it into per-tenant shares (429 ``reason="tenant_quota"``), each
fleet's slow-query log lands in its own ``<path>.<tenant>`` file, and
``/metrics`` federates every fleet's workers under
``tenant.<id>.shard.<sid>.`` prefixes.

Multi-tenant clusters are read-only serving tiers: ``writable`` and
``standby`` configs are refused up front — a primary writer owns one
store lock and one WAL, which is exactly the per-index assumption this
layer exists to lift; run writers per tenant behind their own
single-tenant front ends instead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
from typing import Callable, Mapping

from repro.cluster.service import ClusterConfig, ClusterService
from repro.errors import ClusterConfigError
from repro.obs.metrics import registry
from repro.server.service import ServiceBase
from repro.tenancy.registry import IndexRegistry

__all__ = ["TenantClusterService"]


class TenantClusterService(ServiceBase):
    """Tenant-routed scatter-gather serving over per-tenant worker fleets."""

    process_label = "router"

    def __init__(
        self,
        tenants: Mapping[str, str | pathlib.Path],
        config: ClusterConfig | None = None,
        *,
        max_resident: int | None = None,
        queue_depth: int = 256,
        host: str = "127.0.0.1",
        announce: Callable[[str], None] | None = None,
    ):
        if not tenants:
            raise ClusterConfigError("a tenant cluster needs >= 1 tenant")
        config = config or ClusterConfig()
        if config.writable or config.standby:
            raise ClusterConfigError(
                "multi-tenant cluster serving is read-only: --writable/"
                "--standby own one store lock and one WAL each — run the "
                "writer per tenant behind its own front end"
            )
        self._host = host
        self._announce = announce or (lambda line: None)
        fleets = IndexRegistry(max_resident=max_resident)
        for tid, data_dir in tenants.items():
            path = pathlib.Path(data_dir)
            fleets.register(
                tid, data_dir=path, loader=self._fleet_loader(tid, path)
            )
        # No slow log of its own: each fleet keeps one per tenant.
        super().__init__(
            config, registry=fleets, queue_depth=queue_depth, slowlog=False
        )
        self.registry.add_detach_hook(self._on_detach)
        self._start_locks: dict[str, asyncio.Lock] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = False

    # ------------------------------------------------------------------ #
    def _fleet_loader(
        self, tenant_id: str, data_dir: pathlib.Path
    ) -> Callable[[], ClusterService]:
        def build() -> ClusterService:
            slowlog = self.config.slowlog_path
            per_tenant = dataclasses.replace(
                self.config,
                # Two SlowQueryLog instances over one file would clobber
                # each other's compaction; suffix per tenant.
                slowlog_path=(
                    f"{slowlog}.{tenant_id}" if slowlog else None
                ),
            )
            self._announce(f"tenant {tenant_id}: attaching {data_dir}")
            return ClusterService(
                data_dir,
                per_tenant,
                host=self._host,
                announce=self._announce,
                tenant=tenant_id,
            )

        return build

    def _on_detach(self, tenant_id: str, service: ClusterService) -> None:
        """Registry detach hook: drain the evicted tenant's fleet.

        Fires only at pin count zero, so no in-flight query loses its
        workers; the drain (SIGTERM + reap) runs as a task off the
        serving path.
        """
        self._announce(f"tenant {tenant_id}: detaching (LRU)")
        if self._loop is None or self._loop.is_closed():
            return
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(service.drain())
        )

    async def _ensure_started(
        self, tenant_id: str, service: ClusterService
    ) -> None:
        """Spawn the fleet's workers on first use (serialized per tenant)."""
        if service._started:
            return
        lock = self._start_locks.setdefault(tenant_id, asyncio.Lock())
        async with lock:
            if not service._started:
                await service.start()

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Ready the front end; fleets spawn lazily on first query."""
        self._loop = asyncio.get_running_loop()
        self._started = True
        registry.set_gauge("cluster.tenants", float(len(self.registry.tenant_ids)))

    async def drain(self) -> None:
        """Reject new work, then drain every resident fleet."""
        self.admission.begin_drain()
        for tid, service in self.registry.resident_states().items():
            self._announce(f"tenant {tid}: draining")
            await service.drain()
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
        """One tenant-routed scatter-gather search.

        Resolves (attaching a cold fleet — workers spawn on this first
        query), admits against the global queue and the tenant's quota
        share, and scatters through the tenant's own router.  The
        tenant stays pinned until the response lands, so an LRU
        eviction decided mid-flight drains this fleet only afterwards.
        """
        registry.inc("server.requests_total")
        with self._admitted(tenant) as (tid, service):
            await self._ensure_started(tid, service)
            result = await service.search(
                query,
                top=top,
                threshold=threshold,
                timeout_ms=timeout_ms,
                probes=probes,
                exact=exact,
                tenant=tid,
            )
            result["tenant"] = tid
            return result

    async def add(self, texts, doc_ids=None, *, tenant: str | None = None):
        """Refused per tenant: these fleets are read-only serving tiers."""
        with self.registry.pin(tenant) as (tid, service):
            await self._ensure_started(tid, service)
            # Raises ClusterReadOnlyError (the config refuses writable).
            return await service.add(texts, doc_ids, tenant=tid)

    # ------------------------------------------------------------------ #
    def healthz(self) -> dict:
        """Front-end liveness plus a per-tenant block for resident fleets.

        Sync (like :meth:`QueryService.healthz`): reads each resident
        fleet's supervisor tables without touching worker sockets.
        """
        resident = self.registry.resident_states()
        per_tenant = {tid: svc.healthz() for tid, svc in resident.items()}
        if self.draining:
            status = "draining"
        elif any(h["status"] == "degraded" for h in per_tenant.values()):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "draining": self.draining,
            "queue_depth": self.admission.pending,
            "queue_capacity": self.admission.queue_depth,
            "max_resident": self.registry.max_resident,
            "tenants": self.registry.describe(),
            "fleets": per_tenant,
        }

    def _fleets(self) -> list:
        return [
            (tid, service.router)
            for tid, service in sorted(self.registry.resident_states().items())
        ]

    def _slowlogs(self) -> list:
        return [
            service.slowlog
            for service in self.registry.resident_states().values()
        ]
