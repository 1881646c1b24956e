"""Unified observability: metrics registry, tracing spans, exporters.

The paper's central systems claims are cost claims — the §4 Lanczos
flop model, the §2.3 folding-in vs. SVD-updating tradeoff, the §4.3
orthogonality diagnostics — and the ROADMAP's production north star
adds serving latency to the list.  This package is the one substrate
they are all measured on:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` with named
  counters, gauges, and fixed-bucket latency histograms (count / sum /
  p50 / p95 / p99 without storing samples), thread-safe for the
  shard-parallel serving path;
* :mod:`repro.obs.tracing` — ``span("lsi.search", top=10)`` context
  managers producing nested wall-clock spans with attributes and an
  in-memory ring buffer; disabled by default with near-zero overhead
  on the hot paths;
* :mod:`repro.obs.bridge` — publishes :class:`OperatorCounter` /
  :class:`LanczosStats` matvec & flop counts and §4.3 drift values
  into the registry as gauges;
* :mod:`repro.obs.export` — JSON snapshot blobs for benchmarks
  (``BENCH_obs_*.json``), the cross-process CLI state file behind
  ``python -m repro stats``, and the text rendering it prints.

PR 7 made the substrate cluster-wide:

* :mod:`repro.obs.trace_context` — ambient :class:`TraceContext`
  (trace id + remote parent span) minted at HTTP ingress and carried in
  cluster wire frames, so worker-process spans join the router's trace;
* :mod:`repro.obs.aggregate` — per-worker labeling of shipped worker
  registry snapshots (metrics federation);
* :mod:`repro.obs.prom` — Prometheus text exposition for
  ``/metrics?format=prom``;
* :mod:`repro.obs.slowlog` — a bounded JSONL log of over-threshold
  requests with their assembled per-shard trace evidence.

The serving fast path's counters and timers live in the registry under
the ``serving.`` prefix.
"""
