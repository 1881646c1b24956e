"""Operator views: ``store``, ``stats``, ``tenants``.

``store``
    Maintain a durable data directory: ``inspect`` (checkpoints, WAL,
    recovery state), ``verify`` (checksum audit of every array and log
    record), ``compact`` (fold the WAL into a fresh checkpoint and
    truncate it).
``stats``
    Print the observability snapshot: counters, gauges, latency
    histograms, recent tracing spans, and (with ``--slowlog``) the
    slow-query log a server wrote with its own ``--slowlog`` flag.
``tenants``
    List a multi-tenant server's tenants (``list``) or print their
    residency, quota, and per-tenant index status (``status``).
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import ReproError
from repro.obs.export import (
    SCHEMA,
    default_state_path,
    format_snapshot,
    format_spans,
    load_state,
    merge_snapshots,
)
from repro.obs.metrics import registry
from repro.obs.slowlog import format_slowlog, read_slowlog
from repro.obs.tracing import recent_spans


def add_store_parser(sub) -> None:
    p_store = sub.add_parser(
        "store", help="inspect/verify/compact a durable index store"
    )
    p_store.add_argument(
        "action", choices=["inspect", "verify", "compact"],
        help="inspect: describe checkpoints + WAL (read-only); verify: "
             "checksum audit (read-only); compact: fold the WAL into a "
             "fresh checkpoint (takes the writer lock)",
    )
    p_store.add_argument("data_dir", type=pathlib.Path,
                         help="store directory (the serve --data-dir)")
    p_store.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON (inspect)")


def add_tenants_parser(sub) -> None:
    p_tenants = sub.add_parser(
        "tenants", help="inspect a multi-tenant server's tenants"
    )
    tenants_sub = p_tenants.add_subparsers(dest="action", required=True)
    pt_list = tenants_sub.add_parser(
        "list", help="one line per registered tenant"
    )
    pt_status = tenants_sub.add_parser(
        "status", help="residency, quotas, and per-tenant index status"
    )
    for pt in (pt_list, pt_status):
        pt.add_argument("--host", default="127.0.0.1")
        pt.add_argument("--port", type=int, default=8080)
        pt.add_argument("--json", action="store_true",
                        help="emit the raw /tenants JSON")


def add_stats_parser(sub) -> None:
    p_stats = sub.add_parser(
        "stats", help="print the observability snapshot"
    )
    p_stats.add_argument(
        "--data-dir", type=pathlib.Path, action="append", default=None,
        help="also publish store.* gauges from this durable store "
             "directory (read-only scan; safe while a server is live); "
             "repeat the flag for a per-tenant table over many stores",
    )
    p_stats.add_argument("--json", action="store_true",
                         help="emit the raw JSON blob instead of text")
    p_stats.add_argument("--spans", type=int, default=20,
                         help="recent spans to show (text mode)")
    p_stats.add_argument(
        "--slowlog", type=pathlib.Path, default=None,
        help="also render this slow-query JSONL file (the serve/cluster "
             "--slowlog path)",
    )
    p_stats.add_argument("--reset", action="store_true",
                         help="delete the persisted state after printing")


def cmd_store(args, out) -> int:
    """Maintain a durable data directory (inspect / verify / compact).

    ``inspect`` and ``verify`` are read-only: they scan manifests and
    the WAL without opening the store, so they are safe against a data
    directory a live server owns.  ``compact`` rewrites the WAL and
    therefore takes the single-writer lock — it refuses (with a clear
    error) while a server holds the directory.
    """
    from repro.store.durable import (
        DurableIndexStore,
        read_store_status,
        verify_store,
    )

    if args.action == "verify":
        n_checkpoints, problems = verify_store(args.data_dir)
        if problems:
            for problem in problems:
                print(f"CORRUPT  {problem}", file=out)
            print(f"{len(problems)} integrity problem(s) found", file=out)
            return 1
        print(
            f"ok: {n_checkpoints} checkpoint(s) and the WAL verified clean",
            file=out,
        )
        return 0

    if not DurableIndexStore.exists(args.data_dir):
        raise ReproError(f"{args.data_dir} is not a store")

    if args.action == "compact":
        store = DurableIndexStore.open(args.data_dir)
        try:
            before = store.wal.n_records
            path = store.compact()
            print(
                f"compacted: folded {before} WAL record(s) into "
                f"{path.name}; WAL truncated",
                file=out,
            )
            return 0
        finally:
            store.close(flush=False)

    # inspect: lock-free read-only scan, safe while a server is live
    description = read_store_status(args.data_dir)
    if args.json:
        print(json.dumps(description, indent=2, sort_keys=True), file=out)
        return 0
    print(f"store     : {description['data_dir']}", file=out)
    print(
        f"documents : {description['n_documents']} "
        f"({description['checkpoint_pending']} pending fold-in at the "
        f"checkpoint, {description['wal_documents']} added in the WAL)",
        file=out,
    )
    for ckpt in description["checkpoints"]:
        print(
            f"checkpoint: {pathlib.Path(ckpt['path']).name}  "
            f"docs={ckpt['n_documents']}  wal_lsn={ckpt['wal_lsn']}  "
            f"{ckpt['bytes']} bytes  ann={ckpt['ann_clusters']} cells  "
            f"({ckpt['reason']})",
            file=out,
        )
    wal = description["wal"]
    print(
        f"wal       : {wal['records']} record(s), {wal['bytes']} bytes, "
        f"last LSN {wal['last_lsn']} "
        f"({description['dirty_records']} not yet checkpointed)",
        file=out,
    )
    print(
        f"recovery  : a cold start would replay "
        f"{description['last_recovery_replayed']} record(s)",
        file=out,
    )
    for problem in description["problems"]:
        print(f"PROBLEM   : {problem}", file=out)
    return 0


def cmd_tenants(args, out) -> int:
    """Inspect a multi-tenant server through its ``/tenants`` route."""
    from repro.server.client import ServerClient

    with ServerClient(args.host, args.port) as client:
        info = client.tenants()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True), file=out)
        return 0
    tenants = info.get("tenants", {})
    if args.action == "list":
        for tid in tenants:
            print(tid, file=out)
        return 0
    # status
    quotas = info.get("quotas", {})
    pending = quotas.get("pending", {})
    max_resident = info.get("max_resident")
    print(
        f"tenants    : {len(tenants)}"
        + (
            f" (max {max_resident} resident)"
            if max_resident is not None else ""
        ),
        file=out,
    )
    if quotas:
        print(
            f"quota share: {quotas.get('share')} admission slot(s) per "
            "tenant",
            file=out,
        )
    for tid, row in tenants.items():
        if row.get("resident"):
            docs = row.get("n_documents")
            detail = (
                f"resident   docs={docs if docs is not None else '?'} "
                f"epoch={row.get('epoch', '?')} "
                f"pins={row.get('pins', 0)}"
            )
            if row.get("evict_pending"):
                detail += " evict-pending"
        else:
            detail = "cold      "
        detail += (
            f" attaches={row.get('attaches', 0)}"
            f" pending={pending.get(tid, 0)}"
        )
        if row.get("data_dir"):
            detail += f"  {row['data_dir']}"
        print(f"{tid:<12}: {detail}", file=out)
    return 0


def state_path(args) -> pathlib.Path:
    return args.obs_state if args.obs_state is not None else default_state_path()


def _stats_tenant_table(dirs: list[pathlib.Path], args, out) -> int:
    """Repeated ``--data-dir`` flags: one status row per tenant store.

    Lock-free read-only scan (:func:`~repro.store.read_store_status`
    never opens the store), so it is safe against the data directories
    of a live multi-tenant server.  Tenant names are the directory
    basenames.
    """
    from repro.store.durable import DurableIndexStore, read_store_status

    rows: dict[str, dict] = {}
    for path in dirs:
        if not DurableIndexStore.exists(path):
            raise ReproError(f"{path} is not a durable store")
        name = path.name or str(path)
        if name in rows:
            raise ReproError(f"duplicate tenant directory name {name!r}")
        rows[name] = read_store_status(path)
    if args.json:
        print(json.dumps({"tenants": rows}, indent=2, sort_keys=True),
              file=out)
        return 0
    header = (
        f"{'tenant':<16} {'docs':>8} {'ck-pend':>8} {'wal-docs':>8} "
        f"{'ckpts':>6} {'wal':>6} {'dirty':>6} {'replay':>7}"
    )
    print(header, file=out)
    for name in sorted(rows):
        status = rows[name]
        print(
            f"{name:<16} {status['n_documents']:>8} "
            f"{status['checkpoint_pending']:>8} {status['wal_documents']:>8} "
            f"{len(status['checkpoints']):>6} "
            f"{status['wal']['records']:>6} {status['dirty_records']:>6} "
            f"{status['last_recovery_replayed']:>7}",
            file=out,
        )
        for problem in status["problems"]:
            print(f"  PROBLEM: {problem}", file=out)
    return 0


def cmd_stats(args, out) -> int:
    """Render the persisted + live observability state."""
    if args.data_dir is not None and len(args.data_dir) > 1:
        return _stats_tenant_table(args.data_dir, args, out)
    if args.data_dir is not None:
        # Publish store.* gauges (wal_records, checkpoint_age_seconds,
        # last_recovery_replayed, ...) into this process's registry so they
        # merge into the rendered snapshot below.  Read-only: the store is
        # never opened (no lock, no WAL handle, no tail truncation), so
        # this is safe to run against a live server's data directory.
        from repro.store.durable import DurableIndexStore, publish_store_gauges

        data_dir = args.data_dir[0]
        if not DurableIndexStore.exists(data_dir):
            raise ReproError(f"{data_dir} is not a durable store")
        publish_store_gauges(data_dir)
    path = state_path(args)
    state = load_state(path) or {"metrics": {}, "spans": []}
    # Merge in anything recorded by this process (in-process callers see
    # live data; the fresh `python -m repro stats` process contributes
    # nothing and just renders the file).
    metrics = merge_snapshots(
        state.get("metrics", {}), registry.snapshot()
    )
    spans = list(state.get("spans", [])) + [
        s.to_dict() for s in recent_spans()
    ]
    slow_entries = (
        read_slowlog(args.slowlog) if args.slowlog is not None else []
    )
    if args.json:
        blob = {"schema": SCHEMA, "metrics": metrics, "spans": spans}
        if args.slowlog is not None:
            blob["slow_queries"] = slow_entries
        print(json.dumps(blob, indent=2, sort_keys=True), file=out)
    else:
        print(f"observability state: {path}", file=out)
        print(format_snapshot(metrics), file=out)
        print(format_spans(spans, limit=args.spans), file=out)
        if args.slowlog is not None:
            print(format_slowlog(slow_entries), file=out)
    if args.reset:
        try:
            path.unlink()
        except OSError:
            pass
        print(f"reset: removed {path}", file=out)
    return 0
