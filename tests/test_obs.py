"""The observability layer: metrics registry, tracing spans, bridges,
export/merge, and the ``serving.*`` metric names the fast path reports."""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.obs import tracing
from repro.obs.bridge import (
    record_drift,
    record_lanczos_stats,
    record_operator,
)
from repro.obs.export import (
    SCHEMA,
    dump_state,
    format_snapshot,
    format_spans,
    load_state,
    merge_snapshots,
    snapshot_blob,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    registry,
)
from repro.obs.trace_context import export_trace_jsonl
from repro.obs.tracing import RING_CAPACITY, enable_tracing, recent_spans, span


def clear_spans():
    """Empty the process's span ring buffer."""
    with tracing._ring_lock:
        tracing._ring.clear()


@contextmanager
def traced():
    """Tracing on for the block, the previous state restored after."""
    previous = enable_tracing(True)
    try:
        yield
    finally:
        enable_tracing(previous)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Each test starts and ends with an empty registry, an empty span
    ring, and tracing disabled (the process default)."""
    registry.reset()
    clear_spans()
    enable_tracing(False)
    yield
    registry.reset()
    clear_spans()
    enable_tracing(False)


# --------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------- #
class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.003):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0
        assert Histogram().mean == 0.0

    def test_quantiles_bounded_by_observed_range(self):
        h = Histogram()
        for v in (0.0012, 0.0015, 0.0019):
            h.observe(v)
        for q in (0.01, 0.5, 0.95, 0.99):
            assert 0.0012 <= h.quantile(q) <= 0.0019

    def test_quantiles_track_distribution(self):
        h = Histogram()
        rng = np.random.default_rng(0)
        samples = rng.uniform(1e-4, 1e-1, size=5000)
        for v in samples:
            h.observe(float(v))
        # Bucketed quantiles are approximate; same log-decade is enough.
        assert h.quantile(0.5) == pytest.approx(
            float(np.quantile(samples, 0.5)), rel=1.0
        )
        assert h.quantile(0.95) > h.quantile(0.50) > h.quantile(0.05)

    def test_overflow_bucket(self):
        h = Histogram()
        h.observe(1000.0)  # beyond the last boundary
        assert h.count == 1
        assert h.quantile(0.99) == pytest.approx(1000.0)  # clamped to max

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_roundtrip_and_merge(self):
        a, b = Histogram(), Histogram()
        for v in (0.001, 0.01):
            a.observe(v)
        for v in (0.1, 1.0, 10.0):
            b.observe(v)
        a2 = Histogram.from_dict(a.to_dict())
        assert a2.count == a.count
        assert a2.sum == pytest.approx(a.sum)
        assert a2.bucket_counts == a.bucket_counts
        a2.merge(b)
        assert a2.count == 5
        assert a2.sum == pytest.approx(a.sum + b.sum)
        assert a2.min == pytest.approx(0.001)
        assert a2.max == pytest.approx(10.0)

    def test_merge_rejects_different_buckets(self):
        with pytest.raises(ValueError):
            Histogram().merge(Histogram((1.0, 2.0)))


# --------------------------------------------------------------------- #
# MetricsRegistry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_counters_gauges_histograms(self):
        r = MetricsRegistry()
        r.inc("a.hits")
        r.inc("a.hits", 4)
        r.set_gauge("a.level", 2.5)
        r.set_gauge("a.level", 3.5)  # last write wins
        r.observe("a.latency", 0.01)
        assert r.counter("a.hits") == 5
        assert r.counter("never") == 0
        assert r.snapshot()["gauges"] == {"a.level": 3.5}
        assert r.histogram("a.latency").count == 1
        assert r.histogram("never") is None

    def test_prefix_queries(self):
        r = MetricsRegistry()
        r.inc("serving.hits")
        r.observe("updating.fold_seconds", 0.25)
        r.observe("serving.gemm_seconds", 0.5)
        assert r.histogram_sums("serving.") == {
            "serving.gemm_seconds": pytest.approx(0.5)
        }

    def test_snapshot_is_a_copy(self):
        r = MetricsRegistry()
        r.inc("x")
        snap = r.snapshot()
        snap["counters"]["x"] = 99
        assert r.counter("x") == 1
        assert snap["histograms"] == {}

    def test_snapshot_histogram_has_percentiles(self):
        r = MetricsRegistry()
        r.observe("lat", 0.02)
        h = r.snapshot()["histograms"]["lat"]
        for key in ("count", "sum", "p50", "p95", "p99", "boundaries"):
            assert key in h
        assert h["count"] == 1

    def test_reset_prefix_only(self):
        r = MetricsRegistry()
        r.inc("serving.hits")
        r.inc("manager.events")
        r.set_gauge("serving.level", 1.0)
        r.observe("serving.lat", 0.1)
        r.reset("serving.")
        assert r.counter("serving.hits") == 0
        assert r.counter("manager.events") == 1
        assert r.snapshot()["gauges"] == {}
        assert r.histogram("serving.lat") is None

    def test_custom_boundaries_on_first_observe(self):
        r = MetricsRegistry()
        r.observe("x", 1.5, boundaries=(1.0, 2.0))
        r.observe("x", 1.7, boundaries=(5.0, 6.0))  # ignored: exists
        assert r.histogram("x").boundaries == (1.0, 2.0)

    def test_concurrent_increments_are_exact(self):
        r = MetricsRegistry()
        threads_n, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                r.inc("hits")
                r.observe("lat", 1e-4)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert r.counter("hits") == threads_n * per_thread
        assert r.histogram("lat").count == threads_n * per_thread


# --------------------------------------------------------------------- #
# tracing spans
# --------------------------------------------------------------------- #
class TestTracing:
    def test_disabled_captures_nothing(self):
        with span("lsi.test", k=2) as sp:
            sp.set_attr("later", 1)  # must be a no-op, not an error
        assert recent_spans() == []
        assert registry.histogram("lsi.test") is None

    def test_enabled_captures_nesting_and_attrs(self):
        with traced():
            with span("outer", k=2):
                with span("inner") as sp:
                    sp.set_attr("rows", 5)
        spans = recent_spans()
        assert [s.name for s in spans] == ["inner", "outer"]  # exit order
        inner, outer = spans
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        assert outer.attrs == {"k": 2}
        assert inner.attrs == {"rows": 5}
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_span_feeds_registry_histogram(self):
        with traced():
            with span("lsi.test"):
                pass
        assert registry.histogram("lsi.test").count == 1

    def test_exception_recorded_and_reraised(self):
        with traced():
            with pytest.raises(ValueError, match="boom"):
                with span("lsi.fail"):
                    raise ValueError("boom")
        (record,) = recent_spans()
        assert "boom" in record.attrs["error"]
        assert registry.histogram("lsi.fail").count == 1

    def test_ring_buffer_is_bounded(self):
        with traced():
            for i in range(RING_CAPACITY + 50):
                with span("s", i=i):
                    pass
        spans = recent_spans()
        assert len(spans) == RING_CAPACITY
        assert spans[-1].attrs["i"] == RING_CAPACITY + 49  # newest kept

    def test_recent_spans_tail(self):
        with traced():
            for i in range(5):
                with span("s", i=i):
                    pass
        assert [s.attrs["i"] for s in recent_spans(2)] == [3, 4]

    def test_jsonl_export(self, tmp_path):
        with traced():
            with span("a", arr=np.arange(2)):  # non-JSON attr → repr
                pass
        path = tmp_path / "spans.jsonl"
        spans = [s.to_dict() for s in recent_spans()]
        assert export_trace_jsonl(path, spans) == 1
        record = json.loads(path.read_text().splitlines()[0])
        assert record["name"] == "a"
        assert isinstance(record["attrs"]["arr"], str)

    def test_threads_get_independent_stacks(self):
        seen = {}

        def worker():
            with span("child") as sp:
                seen["record"] = sp._span

        with traced():
            with span("parent"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        # The worker's span must NOT have the main thread's span as parent.
        assert seen["record"].parent_id is None
        assert seen["record"].depth == 0


# --------------------------------------------------------------------- #
# instrumentation bridges
# --------------------------------------------------------------------- #
class _FakeFlops:
    total = 4242


class _FakeOperator:
    matvecs = 11
    rmatvecs = 7
    gram_products = 7
    flops = _FakeFlops()


class _FakeStats:
    iterations = 9
    gram_dim = 12
    converged = 4
    restarts = 1
    matvecs = 21


class _FakeReport:
    term_loss = 0.125
    doc_loss = 0.5


class TestBridge:
    def test_record_operator(self):
        record_operator(_FakeOperator())
        g = registry.snapshot()["gauges"]
        assert g["lanczos.matvecs"] == 11
        assert g["lanczos.rmatvecs"] == 7
        assert g["lanczos.gram_products"] == 7
        assert g["lanczos.flops"] == 4242

    def test_record_lanczos_stats(self):
        record_lanczos_stats(_FakeStats(), prefix="blk")
        g = registry.snapshot()["gauges"]
        assert g["blk.iterations"] == 9
        assert g["blk.stat_matvecs"] == 21

    def test_record_drift(self):
        record_drift(_FakeReport())
        record_drift(_FakeReport())
        assert registry.snapshot()["gauges"]["orthogonality.doc_loss"] == 0.5
        assert registry.counter("orthogonality.reports") == 2

    def test_lanczos_fit_populates_gauges(self):
        from repro.core.build import fit_lsi

        docs = [f"word{i} word{i + 1} shared" for i in range(8)]
        fit_lsi(docs, 3, scheme="raw_none", method="lanczos")
        g = registry.snapshot()["gauges"]
        assert g["lanczos.matvecs"] > 0
        assert g["lanczos.flops"] > 0
        assert g["lanczos.iterations"] > 0

    def test_drift_report_publishes(self, med_model):
        from repro.updating.orthogonality import drift_report

        rep = drift_report(med_model)
        gauges = registry.snapshot()["gauges"]
        assert gauges["orthogonality.doc_loss"] == pytest.approx(rep.doc_loss)
        assert registry.counter("orthogonality.reports") == 1


# --------------------------------------------------------------------- #
# export / merge / state file
# --------------------------------------------------------------------- #
class TestExport:
    def test_snapshot_blob_shape(self):
        registry.inc("serving.hits")
        blob = snapshot_blob(name="t", extra={"speedup": 3.0})
        assert blob["schema"] == SCHEMA
        assert blob["name"] == "t"
        assert blob["extra"] == {"speedup": 3.0}
        assert blob["metrics"]["counters"]["serving.hits"] == 1
        json.dumps(blob)  # must be JSON-serialisable as-is

    def test_merge_semantics(self):
        r = MetricsRegistry()
        r.inc("hits", 2)
        r.set_gauge("level", 1.0)
        r.observe("lat", 0.001)
        a = r.snapshot()
        r2 = MetricsRegistry()
        r2.inc("hits", 3)
        r2.set_gauge("level", 9.0)
        r2.observe("lat", 0.1)
        merged = merge_snapshots(a, r2.snapshot())
        assert merged["counters"]["hits"] == 5  # counters add
        assert merged["gauges"]["level"] == 9.0  # gauges: newest wins
        h = merged["histograms"]["lat"]  # histograms union
        assert h["count"] == 2
        assert h["sum"] == pytest.approx(0.101)

    def test_merge_replaces_on_boundary_mismatch(self):
        a = MetricsRegistry()
        a.observe("lat", 0.5, boundaries=(1.0, 2.0))
        b = MetricsRegistry()
        b.observe("lat", 0.5)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged["histograms"]["lat"]["boundaries"] == list(
            DEFAULT_LATENCY_BUCKETS
        )

    def test_dump_state_accumulates(self, tmp_path):
        path = tmp_path / "state.json"
        registry.inc("serving.hits", 2)
        dump_state(path)
        registry.reset()
        registry.inc("serving.hits", 3)  # a "second process"
        dump_state(path)
        state = load_state(path)
        assert state["metrics"]["counters"]["serving.hits"] == 5

    def test_load_state_tolerates_garbage(self, tmp_path):
        assert load_state(tmp_path / "missing.json") is None
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        assert load_state(bad) is None
        notdict = tmp_path / "list.json"
        notdict.write_text("[1, 2]")
        assert load_state(notdict) is None

    def test_format_snapshot_sections(self):
        registry.inc("serving.hits", 7)
        registry.set_gauge("lanczos.matvecs", 13)
        registry.observe("lsi.search", 0.004)
        text = format_snapshot(registry.snapshot())
        assert "counters" in text and "serving.hits" in text and "7" in text
        assert "gauges" in text and "lanczos.matvecs" in text
        assert "histograms" in text and "lsi.search" in text
        assert format_snapshot({}) == "(no metrics recorded)"

    def test_format_spans(self):
        with traced():
            with span("outer"):
                with span("inner", p=3):
                    pass
        text = format_spans([s.to_dict() for s in recent_spans()])
        assert "outer" in text and "inner" in text and "p=3" in text
        # inner is one level deeper → more indentation.
        inner_line = next(l for l in text.splitlines() if "inner" in l)
        outer_line = next(l for l in text.splitlines() if "outer" in l)
        assert len(inner_line) - len(inner_line.lstrip()) > (
            len(outer_line) - len(outer_line.lstrip())
        )
        assert format_spans([]) == "(no spans captured)"


# --------------------------------------------------------------------- #
# the serving fast path's metric names (what /metrics and `repro stats`
# print; the call sites write the registry directly)
# --------------------------------------------------------------------- #
class TestServingMetricNames:
    def test_search_paths_report_under_serving_prefix(self):
        from repro.core.build import fit_lsi
        from repro.core.query import project_query
        from repro.retrieval.engine import LSIRetrieval
        from repro.serving.snapshot import EpochSnapshot

        texts = [f"w{i} w{i + 1} w{i + 2} common" for i in range(12)]
        model = fit_lsi(texts, 4)
        engine = LSIRetrieval(model)
        engine.search(texts[0], top=3)
        engine.search(texts[0], top=3)
        Qs = project_query(model, texts[0]) * model.s
        for lo, hi in ((0, 6), (6, 12)):
            EpochSnapshot(0, model, lo=lo, hi=hi).search(Qs, top=3)
        counters = registry.snapshot()["counters"]
        assert counters["serving.index_builds"] == 1
        assert counters["serving.queries_served"] == 2
        # Timers are histograms: sum is accumulated seconds.
        sums = registry.histogram_sums("serving.")
        assert sums["serving.scan_seconds"] > 0  # the ranked paths' fp32 pass
        # One observation per ranked (row range × query): 2 + 2 ranges × 1.
        assert registry.histogram("serving.rescore_candidates").count == 4
        assert registry.histogram("serving.topk_seconds").count >= 2

    def test_prefix_reset_only_touches_serving(self):
        registry.inc("serving.queries_served")
        registry.inc("manager.events.fold-in")
        registry.reset("serving.")
        assert registry.counter("serving.queries_served") == 0
        assert registry.counter("manager.events.fold-in") == 1


# --------------------------------------------------------------------- #
# integration: the instrumented serving path
# --------------------------------------------------------------------- #
class TestServingIntegration:
    def test_search_span_and_histogram(self, med_model):
        from repro.retrieval.engine import LSIRetrieval

        engine = LSIRetrieval(med_model)
        with traced():
            engine.search("blood pressure", top=3)
        hist = registry.histogram("lsi.search")
        assert hist is not None and hist.count == 1
        assert registry.counter("serving.queries_served") == 1
