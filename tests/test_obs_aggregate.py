"""The cluster-wide observability substrate: metrics federation labels,
Prometheus exposition, trace contexts, and the slow-query log."""

from __future__ import annotations

import json
import re
import threading

import pytest

from repro.obs.aggregate import label_snapshots, prefix_snapshot
from repro.obs.metrics import MetricsRegistry, registry
from repro.obs.prom import render_prometheus, sanitize_metric_name
from repro.obs.slowlog import SlowQueryLog, format_slowlog, read_slowlog
from repro.obs.trace_context import (
    TraceContext,
    coerce_trace_id,
    current_trace,
    new_trace_id,
    trace_scope,
)
from repro.obs.tracing import (
    enable_tracing,
    recent_spans,
    span,
    spans_for_trace,
)
from tests.test_obs import clear_spans


@pytest.fixture(autouse=True)
def _clean_obs():
    registry.reset()
    clear_spans()
    enable_tracing(False)
    yield
    registry.reset()
    clear_spans()
    enable_tracing(False)


# --------------------------------------------------------------------- #
# federation: per-worker labels
# --------------------------------------------------------------------- #
def _snapshot(counters, gauges) -> dict:
    reg = MetricsRegistry()
    for name, by in counters:
        reg.inc(name, by)
    for name, value in gauges:
        reg.set_gauge(name, value)
    return reg.snapshot()


def test_label_snapshots_prefixes_workers_only():
    local = _snapshot([("router.requests", 2)], [])
    worker = _snapshot([("rpc.calls", 9)], [("up", 1.0)])
    flat = label_snapshots(local, {3: worker})
    assert flat["counters"] == {"router.requests": 2, "shard.3.rpc.calls": 9}
    assert flat["gauges"] == {"shard.3.up": 1.0}
    assert prefix_snapshot(worker, "w.")["counters"] == {"w.rpc.calls": 9}


# --------------------------------------------------------------------- #
# Prometheus exposition
# --------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"          # metric name
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'   # first label
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" -?[0-9].*$"                          # value
)


def _assert_valid_exposition(text: str) -> None:
    """Every line is a TYPE declaration or a sample; one TYPE per family."""
    declared: set[str] = set()
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, kind = rest.rsplit(" ", 1)
            assert kind in {"counter", "gauge", "summary"}
            assert name not in declared, f"duplicate family {name}"
            declared.add(name)
        else:
            assert _SAMPLE_RE.match(line), f"unparseable sample: {line!r}"


def test_render_snapshot_is_valid_exposition():
    reg = MetricsRegistry()
    reg.inc("server.requests_total", 7)
    reg.set_gauge("server.draining", 0.0)
    reg.observe("server.request_seconds", 0.003)
    text = render_prometheus([({"worker": "server"}, reg.snapshot())])
    _assert_valid_exposition(text)
    assert '# TYPE repro_server_requests_total_total counter' in text
    assert 'repro_server_draining{worker="server"} 0.0' in text
    assert 'repro_server_request_seconds{quantile="0.95",worker="server"}' in text
    assert 'repro_server_request_seconds_count{worker="server"} 1' in text


def test_render_prometheus_federates_without_duplicate_families():
    reg = MetricsRegistry()
    reg.observe("rpc.seconds", 0.01)
    snap = reg.snapshot()
    text = render_prometheus(
        [({"worker": "router"}, snap)]
        + [({"worker": str(sid)}, snap) for sid in range(3)]
    )
    _assert_valid_exposition(text)
    assert text.count("# TYPE repro_rpc_seconds summary") == 1
    # One quantile-0.5 sample per label set, all in the one family.
    assert text.count('quantile="0.5"') == 4


def test_render_prometheus_drops_kind_collisions():
    a = {"counters": {"thing": 1}}
    b = {"gauges": {"thing_total": 2.0}}  # sanitizes to the counter's name
    text = render_prometheus([({}, a), ({}, b)])
    _assert_valid_exposition(text)
    assert text.count("# TYPE repro_thing_total") == 1


def test_sanitize_metric_name():
    assert sanitize_metric_name("cluster.rpc-seconds") == "repro_cluster_rpc_seconds"
    assert sanitize_metric_name("9lives") == "repro__9lives"
    assert sanitize_metric_name("///") == "repro_metric"
    legal = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
    for ugly in ("a b", "§", "..", "x" * 99, "total"):
        assert legal.match(sanitize_metric_name(ugly))


# --------------------------------------------------------------------- #
# Trace contexts and trace-scoped spans
# --------------------------------------------------------------------- #
class TestTraceContext:
    def test_coerce_honors_wellformed_ids(self):
        assert coerce_trace_id("req-123.A:z") == "req-123.A:z"

    def test_coerce_mints_on_malformed(self):
        minted = coerce_trace_id(None)
        assert re.fullmatch(r"[0-9a-f]{32}", minted)
        for bad in ("", "has space", "x" * 65, "nl\n", "quote\"", 42):
            out = coerce_trace_id(bad)
            assert out != bad
            assert re.fullmatch(r"[0-9a-f]{32}", out)

    def test_wire_roundtrip(self):
        ctx = TraceContext(trace_id=new_trace_id(), parent_span_id="p-1")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx
        for malformed in (None, "x", {}, {"trace_id": 7}, {"parent": "x"}):
            assert TraceContext.from_wire(malformed) is None

    def test_scope_sets_and_restores(self):
        assert current_trace() is None
        ctx = TraceContext(trace_id="t-1")
        with trace_scope(ctx):
            assert current_trace() == ctx
            with trace_scope(TraceContext(trace_id="t-2")):
                assert current_trace().trace_id == "t-2"
            assert current_trace() == ctx
        assert current_trace() is None

    def test_root_span_adopts_ambient_context(self):
        enable_tracing(True)
        with trace_scope(TraceContext(trace_id="t-9", parent_span_id="up-1")):
            with span("child.work"):
                pass
        (record,) = [s for s in recent_spans() if s.name == "child.work"]
        assert record.trace_id == "t-9"
        assert record.parent_id == "up-1"
        assert spans_for_trace("t-9") == [record]

    def test_spans_for_trace_matches_multi_trace_batches(self):
        enable_tracing(True)
        with span("server.batch") as sp:
            sp.set_attr("trace_ids", ["t-a", "t-b"])
        assert [s.name for s in spans_for_trace("t-a")] == ["server.batch"]
        assert [s.name for s in spans_for_trace("t-b")] == ["server.batch"]
        assert spans_for_trace("t-c") == []

    def test_ring_snapshot_is_safe_under_concurrent_writers(self):
        enable_tracing(True)
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                with span("w"):
                    pass

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                snapshot = recent_spans()
                assert all(s.duration >= 0.0 for s in snapshot)
        finally:
            stop.set()
            for t in threads:
                t.join()


# --------------------------------------------------------------------- #
# Slow-query log
# --------------------------------------------------------------------- #
class TestSlowQueryLog:
    def test_threshold(self):
        log = SlowQueryLog(threshold_ms=100.0)
        assert log.is_slow(0.2)
        assert not log.is_slow(0.05)
        assert not SlowQueryLog(threshold_ms=0).is_slow(10.0)

    def test_disabled_records_nothing(self):
        log = SlowQueryLog(threshold_ms=0)
        log.record({"duration_ms": 9000.0})
        assert log.recent() == []

    def test_disk_stays_bounded(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        log = SlowQueryLog(path, threshold_ms=1.0, max_records=8)
        for i in range(100):
            log.record({"i": i, "duration_ms": float(i)})
        lines = path.read_text().strip().splitlines()
        assert len(lines) <= 16  # compaction bounds disk at 2x max_records
        assert len(log.recent()) == 8
        assert log.recent()[-1]["i"] == 99
        assert log.describe()["slowest_ms"] == 99.0

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        first = SlowQueryLog(path, threshold_ms=1.0, max_records=8)
        first.record({"trace_id": "t-1", "duration_ms": 5.0})
        reloaded = SlowQueryLog(path, threshold_ms=1.0, max_records=8)
        assert reloaded.recent()[-1]["trace_id"] == "t-1"

    def test_read_slowlog_skips_torn_lines(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        path.write_text(
            json.dumps({"duration_ms": 1.0}) + "\n"
            + "{torn garba\n"
            + json.dumps({"duration_ms": 2.0}) + "\n"
        )
        entries = read_slowlog(path)
        assert [e["duration_ms"] for e in entries] == [1.0, 2.0]
        assert read_slowlog(tmp_path / "missing.jsonl") == []

    def test_format_slowlog(self):
        text = format_slowlog(
            [
                {
                    "trace_id": "t-1",
                    "duration_ms": 712.5,
                    "partial": True,
                    "hedged": [2],
                    "shard_timings": {"0": 10.0, "2": 700.0},
                }
            ]
        )
        assert "t-1" in text and "712.5" in text
        assert "partial" in text and "hedged=[2]" in text
        assert "s2=700.0ms" in text
        assert format_slowlog([]) == "(no slow queries recorded)"
