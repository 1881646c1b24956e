"""Fleet-wide metrics federation: label worker registries.

The cluster front end owns only the router's process-local registry;
each shard worker accumulates its own (RPC handling, scoring spans, ANN
probes) in a separate process.  The ``stats`` wire op ships every
worker's ``registry.snapshot()`` to the router, and
:func:`label_snapshots` turns that pile of snapshots into the view
``GET /metrics`` serves: per-worker metrics with each name prefixed
(``shard.3.cluster.rpc_seconds``), so the flat JSON shape of
``/metrics`` stays backward compatible while reporting every process.
"""

from __future__ import annotations

from typing import Mapping

__all__ = ["prefix_snapshot", "label_snapshots"]


def prefix_snapshot(snap: dict, prefix: str) -> dict:
    """A copy of ``snap`` with every metric renamed to ``prefix + name``."""
    return {
        kind: {
            f"{prefix}{name}": value
            for name, value in _section(snap, kind).items()
        }
        for kind in ("counters", "gauges", "histograms")
    }


def label_snapshots(
    local: dict,
    workers: Mapping[object, dict],
    *,
    prefix: str = "shard.",
) -> dict:
    """The federated flat view: local metrics + per-worker-prefixed ones.

    ``workers`` maps a worker label (shard id) to its snapshot; each of
    its metrics lands under ``{prefix}{label}.{name}``.  Local names are
    kept verbatim, so a single-process ``/metrics`` consumer sees no
    shape change.
    """
    merged = {kind: dict(_section(local, kind))
              for kind in ("counters", "gauges", "histograms")}
    for label in sorted(workers, key=str):
        labeled = prefix_snapshot(workers[label], f"{prefix}{label}.")
        for kind in ("counters", "gauges", "histograms"):
            merged[kind].update(labeled[kind])
    return merged


def _section(snap: dict, kind: str) -> dict:
    section = snap.get(kind)
    return section if isinstance(section, dict) else {}
