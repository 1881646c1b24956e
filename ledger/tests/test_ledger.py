"""Self-tests of the ledger (not part of tier-1).

    python -m pytest ledger/tests -q

The smoke test runs the real command at ``--smoke`` size against real
server subprocesses; the rest are arithmetic.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from ledger import compare, loadgen, trace  # noqa: E402
from ledger.catalog import end_to_end_specs, load_benchmark  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# --------------------------------------------------------------------- #
# the command emits what BENCHMARK.json names
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def smoke_report():
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--seed", "5", "--seconds", "2", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    written = re.search(r"result written to (\S+)", done.stdout).group(1)
    with open(ROOT / written, encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_run_emits_every_declared_metric(smoke_report):
    benchmark = load_benchmark()
    specs = end_to_end_specs(benchmark)
    assert set(smoke_report["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    for name, entry in smoke_report["workloads"].items():
        for spec in benchmark["end_to_end"]:
            row = entry["end_to_end"][spec["name"]]
            assert row["unit"] == spec["unit"] and row["median"] != 0, (name, spec["name"])
        assert {m["name"] for m in benchmark["per_layer"]} == set(entry["per_layer"])
        for metric, row in {**entry["end_to_end"], **entry["per_layer"]}.items():
            assert NAME.fullmatch(metric) and row["unit"], metric
        assert entry["end_to_end"]["failed_share"]["median"] == 0, entry["requests"]
        assert not entry["problems"]
        assert (ROOT / "ledger" / "out" / f"trace-{name}.jsonl").stat().st_size > 0
    ingest = smoke_report["workloads"]["ingest_mixed"]["end_to_end"]
    for metric in ("ingest_docs_per_s", "add_ack_p50_ms", "store_bytes_per_doc"):
        assert ingest[metric]["unit"] == specs[metric]["unit"]
    stamp = smoke_report["stamp"]
    assert stamp["smoke"] is True and stamp["connections"] == loadgen.CONNECTIONS
    for key in ("git_sha", "cpu_model", "nproc", "pinned_cpu", "blas", "numpy", "python",
                "OPENBLAS_NUM_THREADS", "seed", "rounds"):
        assert key in stamp


def test_benchmark_json_is_within_the_drivers_limits():
    benchmark = load_benchmark()
    assert set(benchmark) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert benchmark["paths"] == ["ledger"]
    names = [m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]]
    names += [w["name"] for w in benchmark["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])
    assert "setup_s" in {m["name"] for m in benchmark["end_to_end"]}
    assert len(benchmark["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in benchmark["workloads"])


# --------------------------------------------------------------------- #
# percentiles
# --------------------------------------------------------------------- #
def test_tail_percentile_needs_ten_samples_beyond():
    assert loadgen.tail_percentile(1000) == 99
    assert loadgen.tail_percentile(999) == 98
    assert loadgen.tail_percentile(500) == 98
    assert loadgen.tail_percentile(499) == 95
    assert loadgen.tail_percentile(200) == 95
    assert loadgen.tail_percentile(100) == 90
    assert loadgen.tail_percentile(40) == 75
    assert loadgen.tail_percentile(39) == 50


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 99) == 99
    assert loadgen.percentile(values, 100) == 100
    assert loadgen.percentile([7.0], 99) == 7.0


# --------------------------------------------------------------------- #
# span arithmetic
# --------------------------------------------------------------------- #
def _span(spans, name, start, end, parent=None, request=0, **attrs):
    record = trace.Span(None, len(spans), name, request, parent, attrs)
    record.start, record.end = start, end
    spans.append(record)
    return record.id


def test_self_time_subtracts_nested_children():
    spans = []
    root = _span(spans, "root", 0.0, 10.0)
    child = _span(spans, "child", 1.0, 6.0, parent=root)
    _span(spans, "grandchild", 2.0, 4.0, parent=child)
    own = trace.self_times(spans)
    assert own == {0: 5.0, 1: 3.0, 2: 2.0}
    assert sum(own.values()) == 10.0  # self times partition the root


def test_self_time_counts_overlapping_children_once():
    spans = []
    root = _span(spans, "root", 0.0, 10.0)
    _span(spans, "a", 1.0, 5.0, parent=root)
    _span(spans, "b", 3.0, 7.0, parent=root)  # overlaps a on [3, 5]
    _span(spans, "late", 9.0, 12.0, parent=root)  # clipped to the parent's end
    assert trace.self_times(spans)[root] == pytest.approx(10.0 - 6.0 - 1.0)


def test_blocking_time_sums_each_requests_self_times():
    spans = []
    _span(spans, "project", 0.0, 1.0)
    worker = _span(spans, "worker", 1.0, 4.0)
    _span(spans, "kernel", 2.0, 3.5, parent=worker)  # counted once, as the child
    _span(spans, "worker", 4.5, 6.5)
    _span(spans, "project", 10.0, 10.5, request=1)
    assert trace.blocking_time(spans) == {0: pytest.approx(1.0 + 3.0 + 2.0), 1: 0.5}


def test_tracer_records_parent_and_request_and_can_be_off():
    tracer = trace.Tracer()
    with tracer.span("request", request=7) as outer:
        with tracer.span("layer") as inner:
            pass
    assert (inner.parent, inner.request) == (outer.id, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end
    off = trace.Tracer(enabled=False)
    with off.span("request", request=7):
        pass
    assert off.spans == []


# --------------------------------------------------------------------- #
# compare.py verdicts
# --------------------------------------------------------------------- #
def _row(median, q1=None, q3=None, n=5):
    return {"median": median, "q1": median if q1 is None else q1,
            "q3": median if q3 is None else q3, "n": n, "unit": "x"}


LOWER = {"name": "search_p50_ms", "better": "lower", "bound": 0.10}
HIGHER = {"name": "search_qps", "better": "higher", "bound": 0.10}


def test_verdicts_follow_direction_and_bound():
    assert compare.verdict(LOWER, _row(10.0), _row(11.5)) == "worse"
    assert compare.verdict(LOWER, _row(10.0), _row(10.9)) == "unchanged"
    assert compare.verdict(LOWER, _row(10.0), _row(8.5)) == "better"
    assert compare.verdict(HIGHER, _row(100.0), _row(85.0)) == "worse"
    assert compare.verdict(HIGHER, _row(100.0), _row(115.0)) == "better"


def test_unresolved_when_a_is_noisier_than_the_bound():
    noisy = _row(10.0, q1=9.0, q3=10.5)  # 15 % between its own quartiles
    assert compare.verdict(LOWER, noisy, _row(20.0)) == "unresolved"
    steady = _row(10.0, q1=9.8, q3=10.2)
    assert compare.verdict(LOWER, steady, _row(20.0)) == "worse"


def test_unresolved_when_a_has_too_few_values_for_quartiles():
    # One round (--rounds 1, --smoke): q1 == q3 == median says nothing of noise.
    assert compare.verdict(LOWER, _row(10.0, n=1), _row(20.0, n=1)) == "unresolved"
    assert compare.verdict(LOWER, _row(10.0, n=2), _row(20.0)) == "unresolved"
    assert compare.verdict(LOWER, _row(10.0, n=3), _row(20.0, n=1)) == "worse"


def test_failed_share_is_absolute_at_any_n():
    spec = {"name": "failed_share", "better": "lower", "bound": 0.0, "absolute": True}
    assert compare.verdict(spec, _row(0.0, n=1), _row(0.0, n=1)) == "unchanged"
    assert compare.verdict(spec, _row(0.0, n=1), _row(0.001, n=1)) == "worse"


def test_compare_exits_nonzero_on_worse(tmp_path, capsys):
    def result(p50):
        return {
            "stamp": {},
            "workloads": {"serve_exact": {
                "end_to_end": {"search_p50_ms": {**_row(p50), "unit": "ms"}},
                "per_layer": {"serving.kernel.scores_q1_ms": {"value": p50 / 2, "unit": "ms"}},
            }},
        }

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(result(10.0)))
    b.write_text(json.dumps(result(14.0)))
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
    assert "serving.kernel.scores_q1_ms" in capsys.readouterr().out


def test_compare_reports_what_b_lacks_as_missing_and_exits_nonzero(tmp_path, capsys):
    specs = end_to_end_specs(load_benchmark())
    row = {**_row(10.0), "unit": "ms"}
    a = {"stamp": {}, "workloads": {
        "serve_exact": {"end_to_end": {"search_p50_ms": row, "search_qps": row}},
        "serve_ann": {"end_to_end": {"search_p50_ms": row}},
    }}
    # B's serve_ann crashed, and its serve_exact window held no good reply.
    b = {"stamp": {}, "workloads": {"serve_exact": {"end_to_end": {"search_qps": row}}}}
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in compare.compare(a, b, specs)}
    assert verdicts == {
        ("serve_exact", "search_p50_ms"): "missing",
        ("serve_exact", "search_qps"): "unchanged",
        ("serve_ann", "search_p50_ms"): "missing",
    }
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert compare.main([str(pa), str(pb)]) == 1
    assert "2 missing" in capsys.readouterr().out
