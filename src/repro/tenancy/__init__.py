"""Multi-tenant serving: index registry, quotas, and tenant routing.

One front end (:class:`~repro.server.service.QueryService`) hosts N
named tenants, each an independent corpus with its own
checkpoints/WAL/ANN state — scored in process or by its own worker
fleet.  The pieces:

``registry``
    :class:`IndexRegistry` — owns the ``tenant_id -> backend`` map,
    lazily attaches cold tenants through the loader each was
    registered with (it builds no backend itself), and detaches
    least-recently-used tenants past a resident cap — but only once
    in-flight queries drain, mirroring the cluster's two-epoch retain
    pattern.

``quotas``
    :class:`TenantQuotas` — carves the global admission budget into
    per-tenant shares so one hot tenant cannot starve the rest; over
    budget maps to a per-tenant HTTP 429 (``reason="tenant_quota"``).

Every serving path resolves ``(tenant_id, epoch)`` through the
registry; the single-tenant surfaces are the ``tenant=None`` special
case of the same code.
"""
