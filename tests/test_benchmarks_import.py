"""Regression tests: every benchmark module still imports.

The benches run in their own CI jobs (or not at all), so a name they
import can be deleted from ``src/`` without tier-1 noticing.  Importing
each one here catches that API drift without paying its runtime.
"""

import importlib
import pathlib

import pytest

BENCHMARKS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
BENCHMARKS = sorted(p.stem for p in BENCHMARKS_DIR.glob("bench_*.py"))


def test_benchmarks_directory_is_populated():
    assert "bench_query_fastpath" in BENCHMARKS


@pytest.mark.parametrize("module_name", BENCHMARKS)
def test_benchmark_imports(module_name, monkeypatch):
    # The benches import their shared helpers as top-level modules
    # (``from conftest import emit``), exactly as under ``pytest benchmarks/``.
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    importlib.import_module(module_name)
