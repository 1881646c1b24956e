"""Metric names, units, directions and regression bounds.

``BENCHMARK.json`` at the root of the checkout is the source for every
metric the benchmark driver sees.  The driver's contract wants each
end-to-end metric listed there from *every* workload, never a zero, and
steady between seeds to within a bound of at most 0.25.  So the three
metrics only ``ingest_mixed`` has, the one whose healthy value is 0, and
the tail latency (whose spread between seeds on ``ingest_mixed`` was
0.33 to 1.5 under every reader tried) are listed here instead.  A full
run reports them all, and ``ledger/compare.py`` holds all of them to
their bounds.
"""

from __future__ import annotations

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: ``bound`` is the share of A's median by which B may be worse; with
#: ``absolute`` it is a difference, so any rise of ``failed_share`` is a
#: regression.
LEDGER_END_TO_END = [
    {"name": "search_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0,
     "absolute": True},
    {"name": "ingest_docs_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "add_ack_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    {"name": "store_bytes_per_doc", "unit": "B", "better": "lower", "bound": 0.02},
]


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_specs(benchmark: dict) -> dict[str, dict]:
    """Metric name -> its ``BENCHMARK.json``-style entry, ledger extras included."""
    return {m["name"]: m for m in benchmark["end_to_end"] + LEDGER_END_TO_END}
