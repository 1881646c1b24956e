"""Prometheus text exposition for registry snapshots.

``GET /metrics?format=prom`` on the server and cluster front ends
renders the fleet's metrics in the Prometheus text format (version
0.0.4) so a stock Prometheus scraper can ingest them — the JSON shape
at plain ``/metrics`` stays untouched.

The registry's dotted metric names (``cluster.worker.3.rpc_seconds``)
are not legal Prometheus names, and its histograms are fixed-bucket
quantile sketches rather than cumulative bucket series, so rendering
maps:

* counters → ``repro_<name>_total`` (``# TYPE counter``);
* gauges → ``repro_<name>`` (``# TYPE gauge``);
* histograms → a **summary** family ``repro_<name>`` with
  ``{quantile="0.5|0.95|0.99"}`` sample lines plus ``_sum``/``_count``,
  which carries the latency percentiles without inventing cumulative
  buckets the sketch cannot exactly provide.

:func:`render_prometheus` takes ``(labels, snapshot)`` pairs so the
cluster can emit one family per metric with a ``worker="<sid>"`` label
per shard process; families are emitted once (single ``# TYPE`` line
each, names sanitized to ``[a-zA-Z_:][a-zA-Z0-9_:]*``) with every
label set's samples beneath — the exposition stays parseable with no
duplicate or illegal names no matter how many workers report.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

__all__ = ["sanitize_metric_name", "render_prometheus"]

#: Prefix namespacing every exported family.
NAME_PREFIX = "repro_"

_ILLEGAL_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_ILLEGAL_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: Summary quantiles rendered from each histogram sketch.
_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def sanitize_metric_name(name: str) -> str:
    """A legal, namespaced Prometheus metric name for a registry name."""
    cleaned = _ILLEGAL_CHARS.sub("_", str(name))
    cleaned = re.sub(r"_+", "_", cleaned).strip("_")
    if not cleaned:
        cleaned = "metric"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return NAME_PREFIX + cleaned


def _escape_label_value(value) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _label_text(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        name = _ILLEGAL_LABEL_CHARS.sub("_", str(key)) or "label"
        if name[0].isdigit():
            name = "_" + name
        parts.append(f'{name}="{_escape_label_value(labels[key])}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Family:
    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        self.samples: list[str] = []


def render_prometheus(
    series: Iterable[tuple[Mapping[str, object], dict]]
) -> str:
    """Render ``(labels, registry.snapshot())`` pairs as exposition text.

    Later series never redeclare a family: when two registry names
    sanitize to the same Prometheus name with conflicting kinds, the
    first kind encountered wins and the conflicting samples are dropped
    (a parse error would cost the whole scrape; a dropped family costs
    one metric).
    """
    families: dict[str, _Family] = {}

    def family(name: str, kind: str) -> "_Family | None":
        existing = families.get(name)
        if existing is None:
            existing = families[name] = _Family(name, kind)
        elif existing.kind != kind:
            return None
        return existing

    for labels, snap in series:
        if not isinstance(snap, dict):
            continue
        base = _label_text(labels or {})
        counters = snap.get("counters") or {}
        for raw in sorted(counters):
            fam = family(sanitize_metric_name(raw) + "_total", "counter")
            if fam is not None:
                fam.samples.append(
                    f"{fam.name}{base} {_format_value(counters[raw])}"
                )
        gauges = snap.get("gauges") or {}
        for raw in sorted(gauges):
            fam = family(sanitize_metric_name(raw), "gauge")
            if fam is not None:
                fam.samples.append(
                    f"{fam.name}{base} {_format_value(gauges[raw])}"
                )
        histograms = snap.get("histograms") or {}
        for raw in sorted(histograms):
            data = histograms[raw]
            if not isinstance(data, dict):
                continue
            fam = family(sanitize_metric_name(raw), "summary")
            if fam is None:
                continue
            for q, key in _QUANTILES:
                labeled = dict(labels or {})
                labeled["quantile"] = q
                fam.samples.append(
                    f"{fam.name}{_label_text(labeled)}"
                    f" {_format_value(float(data.get(key, 0.0)))}"
                )
            fam.samples.append(
                f"{fam.name}_sum{base}"
                f" {_format_value(float(data.get('sum', 0.0)))}"
            )
            fam.samples.append(
                f"{fam.name}_count{base}"
                f" {_format_value(int(data.get('count', 0)))}"
            )

    lines: list[str] = []
    for name in sorted(families):
        fam = families[name]
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        lines.extend(fam.samples)
    return "\n".join(lines) + "\n" if lines else "\n"
