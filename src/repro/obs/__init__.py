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

from repro.obs.aggregate import (
    label_snapshots,
    prefix_snapshot,
)
from repro.obs.bridge import record_drift, record_lanczos_stats, record_operator
from repro.obs.export import (
    dump_state,
    format_snapshot,
    format_spans,
    load_state,
    merge_snapshots,
    snapshot_blob,
    write_json,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.prom import render_prometheus
from repro.obs.slowlog import SlowQueryLog, format_slowlog, read_slowlog
from repro.obs.trace_context import (
    TraceContext,
    coerce_trace_id,
    current_trace,
    export_trace_jsonl,
    new_trace_id,
    trace_scope,
)
from repro.obs.tracing import (
    Span,
    enable_tracing,
    recent_spans,
    span,
    spans_for_trace,
    tracing_enabled,
)

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "DEFAULT_LATENCY_BUCKETS",
    "registry",
    "span",
    "Span",
    "enable_tracing",
    "tracing_enabled",
    "recent_spans",
    "spans_for_trace",
    "TraceContext",
    "new_trace_id",
    "coerce_trace_id",
    "current_trace",
    "trace_scope",
    "export_trace_jsonl",
    "prefix_snapshot",
    "label_snapshots",
    "render_prometheus",
    "SlowQueryLog",
    "read_slowlog",
    "format_slowlog",
    "record_operator",
    "record_lanczos_stats",
    "record_drift",
    "snapshot_blob",
    "merge_snapshots",
    "write_json",
    "dump_state",
    "load_state",
    "format_snapshot",
    "format_spans",
]
