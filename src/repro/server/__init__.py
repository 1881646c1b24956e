"""The async query service: the layer that *serves* the fast path.

PR 1 made a single process score queries as fast as the hardware allows
(``V_k Σ_k`` derived once per model, one GEMM kernel,
argpartition top-k); PR 2 made every stage observable.  Nothing served
them: each ``repro query`` invocation reloaded the model, and the
batched GEMM only helped callers who arrived pre-batched.  This package
is the long-lived service the ROADMAP's "heavy traffic" north star
needs, stdlib-asyncio only:

* :mod:`repro.server.state` — :class:`ServingState`, the in-process
  backend over :class:`~repro.serving.snapshot.EpochSnapshot` (the one
  pinned-epoch scoring type, with the one ``search`` every tier calls):
  the atomic reader/writer model handoff that lets live additions (fold-in →
  §4.3-policy consolidation through the index manager) swap epochs under
  in-flight queries, its work-conserving micro-batching scheduler (a
  lone query is scored at once, whatever queued up behind the flush in
  flight — up to ``max_batch`` — is coalesced into one batched GEMM,
  scored on the event loop: no window, no timer, no thread hand-off,
  per-request ``top``/``threshold`` kept and results element-identical
  to the unbatched engine) and, over a store, the store's owner, which
  it starts and closes itself;
* :mod:`repro.server.admission` — :class:`AdmissionController`, the
  bounded queue with fast overload rejection, per-request deadlines,
  and the drain latch for graceful shutdown;
* :mod:`repro.server.service` — :class:`QueryService`, the one front
  end the HTTP transport calls: admission → quota → registry pin →
  backend → tenant label → slow log, the same whether the registry
  hosts in-process scorers or :mod:`repro.cluster` worker fleets,
  emitting ``server.*`` metrics and spans;
* :mod:`repro.server.http` — the stdlib HTTP/JSON front end
  (``/search``, ``/add``, ``/healthz``, ``/stats``);
* :mod:`repro.server.client` — :class:`ServerClient`, a small blocking
  client mapping HTTP failures back onto the library's exceptions.

Run one with ``python -m repro serve <docs-or-model> --port 8080``.
"""
