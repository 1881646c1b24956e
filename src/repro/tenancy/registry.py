"""Index registry: named tenants, lazy attach, LRU detach.

The registry owns the ``tenant_id -> backend`` map every serving path
resolves through — a :class:`~repro.server.state.ServingState` scored in
process, or a :class:`~repro.cluster.service.ClusterService` fleet.
What :meth:`IndexRegistry.pin` hands out is exactly what the front end
drives: each backend owns its scheduler or workers and its writer, so
there is nothing to wrap around it, and a detached tenant's backend is
drained whole (a detach hook) while a re-attach loads a fresh one.  It
only hosts what it is handed, in one of two ways:

* an **eager state** (``state=``) — already built, never evicted (there
  is no loader to come back through);
* a **loader** (``loader=``) — a zero-argument callable returning a
  backend, called on the tenant's first resolve and again after each
  detach (``serve --tenant`` hands it ``ServingState.open`` over the
  tenant's path, ``cluster serve --tenants`` a fleet builder).

It builds none itself, so it imports no serving tier: the tiers stack
``store < tenancy < server < cluster``.

With ``max_resident`` set, attaching a tenant past the cap detaches the
least-recently-used evictable one — but never under in-flight queries:
callers pin a tenant for the lifetime of each request
(:meth:`IndexRegistry.pin`), and a pinned tenant's detach is deferred
until its pin count drains to zero, mirroring the two-epoch retain
pattern the cluster workers use for epoch swaps.  A deferred-detach
tenant that gets resolved again before draining simply stays resident
(the bound is enforced eagerly at attach time, best-effort under
drain).
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.errors import ReproError, UnknownTenantError
from repro.obs.metrics import registry as metrics

__all__ = ["DEFAULT_TENANT", "IndexRegistry", "TenantEntry"]

#: What a tenant resolves to: anything with ``describe()`` and the
#: backend surface :class:`~repro.server.service.QueryService` drives.
Backend = Any

DEFAULT_TENANT = "default"


class TenantEntry:
    """Book-keeping for one registered tenant (internal to the registry)."""

    __slots__ = (
        "tenant_id",
        "data_dir",
        "loader",
        "state",
        "evictable",
        "pins",
        "last_used",
        "evict_pending",
        "attaches",
    )

    def __init__(
        self,
        tenant_id: str,
        *,
        data_dir: Path | None,
        loader: Callable[[], Backend] | None,
        state: Backend | None,
    ):
        self.tenant_id = tenant_id
        self.data_dir = data_dir
        self.loader = loader
        self.state = state
        # An eagerly supplied state has no loader to re-attach through,
        # so it must stay resident for the registry's lifetime.
        self.evictable = state is None
        self.pins = 0
        self.last_used = 0
        self.evict_pending = False
        self.attaches = 0

    @property
    def resident(self) -> bool:
        return self.state is not None


class IndexRegistry:
    """Owns N named tenants and resolves every request to one of them.

    Thread-safe: the asyncio serving path touches it from the event
    loop, ``/add`` from executor threads, and detach hooks from
    whichever thread dropped the last pin.
    """

    def __init__(self, *, max_resident: int | None = None):
        if max_resident is not None and max_resident < 1:
            raise ReproError("max_resident must be >= 1")
        self._max_resident = max_resident
        self._entries: dict[str, TenantEntry] = {}
        self._lock = threading.RLock()
        self._clock = 0  # logical LRU clock; monotonic under the lock
        self._detach_hooks: list = []

    # ------------------------------------------------------------------ #
    @classmethod
    def single(cls, state: Backend) -> "IndexRegistry":
        """A one-tenant registry wrapping an existing state or fleet.

        ``QueryService(state, ...)`` wraps a bare backend this way, so
        single-tenant serving is the ``tenant=None`` special case of the
        multi-tenant path.
        """
        reg = cls()
        reg.register(DEFAULT_TENANT, state=state)
        return reg

    def register(
        self,
        tenant_id: str,
        *,
        loader: Callable[[], Backend] | None = None,
        state: Backend | None = None,
        data_dir: str | Path | None = None,
    ) -> None:
        """Register one tenant: exactly one of ``loader`` or ``state``.

        ``data_dir`` is descriptive only (shown in ``describe()``); the
        loader is what attaches.
        """
        if not tenant_id or not isinstance(tenant_id, str):
            raise ReproError("tenant id must be a non-empty string")
        if (state is None) == (loader is None):
            raise ReproError(
                f"tenant {tenant_id!r} needs one of loader or state, "
                "not both"
            )
        with self._lock:
            if tenant_id in self._entries:
                raise ReproError(f"tenant {tenant_id!r} already registered")
            self._entries[tenant_id] = TenantEntry(
                tenant_id,
                data_dir=Path(data_dir) if data_dir is not None else None,
                loader=loader,
                state=state,
            )
            metrics.set_gauge(
                "tenants.registered", float(len(self._entries))
            )
            if state is not None:
                self._note_attach(self._entries[tenant_id])

    @property
    def tenant_ids(self) -> list[str]:
        """Registered tenant ids, registration order."""
        with self._lock:
            return list(self._entries)

    @property
    def sole_tenant(self) -> str | None:
        """The one eager tenant's id when that is all the registry hosts
        (what :meth:`single` builds), else ``None`` — requests are
        tenant-routed."""
        with self._lock:
            if len(self._entries) == 1:
                (entry,) = self._entries.values()
                if not entry.evictable:
                    return entry.tenant_id
            return None

    @property
    def max_resident(self) -> int | None:
        """The resident-set cap, or ``None`` for unbounded."""
        return self._max_resident

    def add_detach_hook(self, hook) -> None:
        """Register ``hook(tenant_id, state)`` to run at actual detach.

        Runs after the state is unlinked from the entry (under the
        registry lock) — the front end uses it to drain the tenant's
        backend.  By the drain discipline the tenant has zero in-flight
        queries at this point.
        """
        self._detach_hooks.append(hook)

    # ------------------------------------------------------------------ #
    def _entry(self, tenant_id: str | None) -> TenantEntry:
        """Resolve an id (or ``None``) to its entry, or raise typed 404."""
        if tenant_id is None:
            if DEFAULT_TENANT in self._entries:
                return self._entries[DEFAULT_TENANT]
            if len(self._entries) == 1:
                return next(iter(self._entries.values()))
            raise UnknownTenantError(
                "request names no tenant and the server hosts "
                f"{len(self._entries)}; pass X-Tenant or a 'tenant' field",
                tenant=None,
            )
        entry = self._entries.get(tenant_id)
        if entry is None:
            raise UnknownTenantError(
                f"unknown tenant {tenant_id!r}", tenant=tenant_id
            )
        return entry

    def _note_attach(self, entry: TenantEntry) -> None:
        self._clock += 1
        entry.last_used = self._clock
        entry.attaches += 1
        metrics.inc(f"tenant.{entry.tenant_id}.attaches_total")
        metrics.set_gauge(f"tenant.{entry.tenant_id}.resident", 1.0)
        metrics.set_gauge(
            "tenants.resident", float(self._resident_count())
        )

    def _resident_count(self) -> int:
        return sum(1 for e in self._entries.values() if e.resident)

    def _attach_locked(self, entry: TenantEntry) -> None:
        entry.state = entry.loader()
        entry.evict_pending = False
        self._note_attach(entry)
        self._enforce_cap(exclude=entry)

    def _enforce_cap(self, *, exclude: TenantEntry) -> None:
        """Detach (or mark for deferred detach) LRU tenants over the cap."""
        if self._max_resident is None:
            return
        while True:
            resident = [
                e
                for e in self._entries.values()
                if e.resident
                and e.evictable
                and not e.evict_pending
                and e is not exclude
            ]
            if self._resident_count() <= self._max_resident or not resident:
                return
            victim = min(resident, key=lambda e: e.last_used)
            if victim.pins > 0:
                # In-flight queries hold the snapshot; defer like the
                # workers' two-epoch retain — detach when pins drain.
                victim.evict_pending = True
                metrics.inc(f"tenant.{victim.tenant_id}.evict_deferred_total")
            else:
                self._detach_locked(victim)

    def _detach_locked(self, entry: TenantEntry) -> None:
        state = entry.state
        entry.state = None
        entry.evict_pending = False
        metrics.inc(f"tenant.{entry.tenant_id}.detaches_total")
        metrics.set_gauge(f"tenant.{entry.tenant_id}.resident", 0.0)
        metrics.set_gauge(
            "tenants.resident", float(self._resident_count())
        )
        for hook in self._detach_hooks:
            hook(entry.tenant_id, state)

    # ------------------------------------------------------------------ #
    def resolve_id(self, tenant_id: str | None = None) -> str:
        """The id a request for ``tenant_id`` is served as, attaching
        nothing: ``None`` and unknown ids resolve as in :meth:`resolve`."""
        with self._lock:
            return self._entry(tenant_id).tenant_id

    def resolve(
        self, tenant_id: str | None = None
    ) -> tuple[str, Backend]:
        """``(tenant_id, state)`` for a request, attaching if cold.

        ``None`` resolves to the ``default`` tenant if registered, else
        the sole registered tenant, else raises
        :class:`~repro.errors.UnknownTenantError` (ambiguous).  Unknown
        ids raise the same typed error.  Touches the LRU clock and, if
        the tenant was marked for deferred eviction, rescinds the mark —
        it is hot again.
        """
        with self._lock:
            entry = self._entry(tenant_id)
            if not entry.resident:
                self._attach_locked(entry)
            else:
                self._clock += 1
                entry.last_used = self._clock
                entry.evict_pending = False
            return entry.tenant_id, entry.state

    @contextlib.contextmanager
    def pin(
        self, tenant_id: str | None = None
    ) -> Iterator[tuple[str, Backend]]:
        """Resolve and pin a tenant for the duration of one request.

        While pinned the tenant cannot be detached; an eviction decision
        taken meanwhile is deferred and executes when the last pin
        drops.  The serving paths hold the pin across the full await of
        the micro-batched future, so "detach only after in-flight
        queries drain" holds by construction.
        """
        with self._lock:
            tid, state = self.resolve(tenant_id)
            self._entries[tid].pins += 1
        try:
            yield tid, state
        finally:
            with self._lock:
                entry = self._entries[tid]
                entry.pins -= 1
                if entry.evict_pending and entry.pins == 0:
                    self._detach_locked(entry)

    def resident_states(self) -> dict[str, Backend]:
        """``tenant_id -> state`` for resident tenants only (no attach)."""
        with self._lock:
            return {
                tid: e.state
                for tid, e in self._entries.items()
                if e.resident
            }

    def describe(self) -> dict:
        """Per-tenant status map for ``/tenants`` and ``healthz``.

        A resident tenant's hosted object (a ``ServingState`` or a
        ``ClusterService``) contributes its own ``describe()`` — at
        least ``epoch`` and ``n_documents``.
        """
        with self._lock:
            out = {}
            for tid, entry in self._entries.items():
                info = {
                    "resident": entry.resident,
                    "evictable": entry.evictable,
                    "pins": entry.pins,
                    "attaches": entry.attaches,
                    "evict_pending": entry.evict_pending,
                }
                if entry.data_dir is not None:
                    info["data_dir"] = str(entry.data_dir)
                if entry.resident:
                    info.update(entry.state.describe())
                    metrics.set_gauge(
                        f"tenant.{tid}.epoch", float(info["epoch"])
                    )
                out[tid] = info
            return out
