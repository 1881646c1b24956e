"""Export the observability registry as a ``BENCH_obs_*.json`` blob.

Benchmarks print their reproduction tables to stderr; this helper gives
them a machine-readable companion: after a bench has exercised the
instrumented paths, ``export_obs("query_fastpath")`` dumps the metrics
registry (counters, gauges, histograms with p50/p95/p99) plus recent
tracing spans to ``BENCH_obs_query_fastpath.json`` — the same
``BENCH_*.json`` naming CI already collects as artifacts.

Opt-in per run: benchmarks call :func:`maybe_export_obs`, which is a
no-op unless ``BENCH_OBS_EXPORT`` is set, so local ``pytest benchmarks``
runs do not litter the tree with blobs.
"""

from __future__ import annotations

import os
import pathlib

from repro.obs.export import snapshot_blob, write_json

__all__ = ["export_obs", "maybe_export_obs", "EXPORT_ENV"]

#: Set (to anything non-empty) to make :func:`maybe_export_obs` write.
EXPORT_ENV = "BENCH_OBS_EXPORT"


def export_obs(
    name: str,
    extra: dict | None = None,
    out_dir=None,
) -> pathlib.Path:
    """Write ``BENCH_obs_<name>.json`` and return its path.

    ``extra`` carries bench-specific scalars (speedups, problem sizes)
    alongside the registry snapshot; ``out_dir`` defaults to the
    current working directory (the repo root under CI).
    """
    out_dir = pathlib.Path(out_dir) if out_dir is not None else pathlib.Path(".")
    path = out_dir / f"BENCH_obs_{name}.json"
    return write_json(path, snapshot_blob(name=name, extra=extra))


def maybe_export_obs(
    name: str,
    extra: dict | None = None,
    out_dir=None,
) -> pathlib.Path | None:
    """:func:`export_obs`, but only when ``$BENCH_OBS_EXPORT`` is set."""
    if not os.environ.get(EXPORT_ENV):
        return None
    return export_obs(name, extra=extra, out_dir=out_dir)
