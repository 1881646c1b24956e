"""The ``cluster`` commands: ``serve``, ``status``, ``worker``.

``cluster serve``
    Multi-process serving over a durable store (:mod:`repro.cluster`):
    spawns shard worker processes that memory-map the newest
    checkpoint and mounts a scatter-gather router behind the HTTP front
    end — with ``--writable`` it also embeds the primary writer, so
    ``/add`` WAL-logs through the store, checkpoints seal on policy,
    and worker epochs bump live; with ``--tenants tenants.json`` it
    serves N named stores behind one front end, spawning each tenant's
    worker fleet lazily on first query.
``cluster status``
    Query a running cluster's health (per-worker epochs, writer lag).
``cluster worker``
    The per-shard process entry point the supervisor launches.
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import serving
from repro.cli.toolbox import NONNEGATIVE_FLOAT, NONNEGATIVE_INT, POSITIVE_FLOAT
from repro.errors import ReproError


def add_parser(sub) -> None:
    """Declare ``cluster`` and its verbs on the top-level subparsers."""
    p_cluster = sub.add_parser(
        "cluster",
        help="multi-process shard cluster over a durable store",
    )
    cluster_sub = p_cluster.add_subparsers(dest="action", required=True)

    pc_serve = cluster_sub.add_parser(
        "serve",
        help="spawn shard workers + scatter-gather router over HTTP",
    )
    pc_serve.add_argument(
        "--data-dir", type=pathlib.Path, default=None,
        help="durable store directory whose newest checkpoint to serve "
             "(exactly one of --data-dir / --tenants)",
    )
    pc_serve.add_argument(
        "--tenants", type=pathlib.Path, default=None,
        help="JSON file mapping tenant name -> durable store directory; "
             "serves every tenant behind one front end, spawning each "
             "fleet lazily on first query (read-only: excludes "
             "--writable/--standby)",
    )
    pc_serve.add_argument("--workers", type=int, default=4,
                          help="shard worker processes (workers // "
                               "replication shard ranges are carved)")
    pc_serve.add_argument(
        "--replication", type=int, default=1, metavar="R",
        help="replicas per shard range: reads load-balance across them, "
             "a dead replica fails over to a sibling, and epoch bumps "
             "publish on per-range quorum (default 1)",
    )
    pc_serve.add_argument("--heartbeat-interval",
                          type=POSITIVE_FLOAT, default=1.0,
                          help="seconds between worker heartbeats")
    pc_serve.add_argument("--restart-backoff", type=float, default=0.5,
                          help="first restart delay (doubles per retry)")
    pc_serve.add_argument("--restart-backoff-cap", type=float, default=10.0,
                          help="restart delay ceiling")
    pc_serve.add_argument(
        "--writable", action="store_true",
        help="embed the primary writer: accept /add, seal checkpoints "
             "on policy, and bump worker epochs live (the process takes "
             "the store's single-writer lock)",
    )
    pc_serve.add_argument(
        "--seal-every", type=NONNEGATIVE_INT, default=64,
        metavar="RECORDS",
        help="writable: seal + bump once this many WAL records are "
             "dirty (0 disables the record trigger)",
    )
    pc_serve.add_argument(
        "--seal-interval", type=NONNEGATIVE_FLOAT, default=15.0,
        metavar="SECONDS",
        help="writable: seal + bump dirty state older than this many "
             "seconds (0 disables the age trigger)",
    )
    pc_serve.add_argument(
        "--standby", action="store_true",
        help="warm standby writer: tail the primary's checkpoints + WAL "
             "read-only and adopt the store lock (promote, replay the "
             "WAL tail, resume sealing) when the primary dies; mutually "
             "exclusive with --writable",
    )
    pc_serve.add_argument(
        "--standby-poll", type=POSITIVE_FLOAT, default=0.5,
        metavar="SECONDS",
        help="standby: epoch-tail and lock-probe cadence",
    )
    pc_serve.add_argument(
        "--promotion-log", type=pathlib.Path, default=None,
        help="standby: JSONL file recording the promotion timeline",
    )
    serving.add_serving_options(
        pc_serve,
        port="HTTP port (0 picks an ephemeral port)",
        max_resident="multi-tenant: most tenant fleets resident at once — "
                     "past the cap the least-recently-used is drained "
                     "after its in-flight queries finish (default "
                     "unbounded)",
        queue_depth="bounded front-end admission queue (excess → 429), "
                    "carved into per-tenant shares on a multi-tenant "
                    "cluster (excess per tenant → 429)",
    )

    pc_status = cluster_sub.add_parser(
        "status", help="query a running cluster's health"
    )
    pc_status.add_argument("--host", default="127.0.0.1")
    pc_status.add_argument("--port", type=int, default=8080)
    pc_status.add_argument("--json", action="store_true",
                           help="emit the raw healthz JSON")

    pc_worker = cluster_sub.add_parser(
        "worker",
        help="one shard worker process (launched by the supervisor)",
    )
    pc_worker.add_argument("--data-dir", type=pathlib.Path, required=True)
    pc_worker.add_argument("--shard", type=int, required=True,
                           help="shard id within the plan")
    pc_worker.add_argument("--replica", type=int, default=0,
                           help="replica index within the shard's "
                                "replica set (identity only)")
    pc_worker.add_argument("--plan", required=True,
                           help="canonical shard-plan JSON")
    pc_worker.add_argument("--host", default="127.0.0.1")
    pc_worker.add_argument("--port", type=int, default=0,
                           help="worker port (0 picks ephemeral)")
    pc_worker.add_argument("--tenant", default=None,
                           help="tenant this worker serves (set by a "
                                "multi-tenant supervisor; score frames "
                                "naming another tenant are rejected)")


def read_tenant_map(path: pathlib.Path) -> list[tuple[str, pathlib.Path]]:
    """``cluster serve --tenants`` JSON → ``(name, path)`` pairs."""
    try:
        # A list of (key, value) tuples per object keeps a repeated key
        # for the builder's duplicate check.
        raw = json.loads(
            path.read_text(encoding="utf-8"), object_pairs_hook=list
        )
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}")
    if not isinstance(raw, list) or not all(
        isinstance(pair, tuple) and all(isinstance(x, str) for x in pair)
        for pair in raw
    ):
        raise ReproError(
            f"{path} must be a non-empty JSON object mapping tenant name "
            "-> store directory"
        )
    return [(name, pathlib.Path(value)) for name, value in raw]


def cmd_status(args, out) -> int:
    """Print a running cluster's ``/healthz`` as a worker table."""
    from repro.server.client import ServerClient

    with ServerClient(args.host, args.port) as client:
        health = client.healthz()
    if args.json:
        print(json.dumps(health, indent=2, sort_keys=True), file=out)
        return 0
    print(f"status    : {health.get('status')}", file=out)
    print(f"epoch     : {health.get('epoch')}", file=out)
    print(f"checkpoint: {health.get('checkpoint')}", file=out)
    print(f"documents : {health.get('n_documents')}", file=out)
    print(
        f"shards    : {health.get('workers_live')}/"
        f"{health.get('n_workers', health.get('n_shards'))} "
        "workers live",
        file=out,
    )
    if health.get("replication", 1) > 1:
        print(f"replication: {health['replication']}", file=out)
    for rng in health.get("ranges", []):
        print(
            f"range {rng['shard']:<4}: "
            f"{rng['replicas_healthy']}/{rng['replicas_total']} "
            f"replicas healthy rows=[{rng['lo']},{rng['hi']})",
            file=out,
        )
    for row in health.get("workers", []):
        replica = (
            f" replica={row['replica']}" if "replica" in row else ""
        )
        print(
            f"shard {row['shard']:<4}: {row['state']:<10} "
            f"rows=[{row['lo']},{row['hi']}) epoch={row.get('epoch')}"
            f"{replica} pid={row['pid']} port={row['port']} "
            f"restarts={row['restarts']}",
            file=out,
        )
    writer = health.get("writer") or {}
    if writer.get("enabled"):
        print(
            f"writer    : {writer.get('ingest_method')} "
            f"wal_lsn={writer.get('wal_lsn')} "
            f"sealed_epoch={writer.get('sealed_epoch')} "
            f"lag={writer.get('lag_records')} record(s) "
            f"seals={writer.get('seals_total')}",
            file=out,
        )
    else:
        print("writer    : read-only", file=out)
    slowlog = health.get("slowlog") or {}
    if slowlog:
        slowest = slowlog.get("slowest_ms")
        print(
            f"slowlog   : {slowlog.get('records', 0)} record(s) over "
            f"{slowlog.get('threshold_ms')}ms"
            + (f", slowest {slowest:.1f}ms" if slowest else "")
            + (
                f" → {slowlog['path']}"
                if slowlog.get("path") else " (in-memory)"
            ),
            file=out,
        )
    return 0


def cmd_worker(args, out) -> int:
    from repro.cluster.worker import run_worker

    return run_worker(
        args.data_dir, args.plan, args.shard,
        replica=args.replica, host=args.host, port=args.port,
        tenant=args.tenant, out=out,
    )


def cmd_serve(args, out) -> int:
    """Spawn the fleet (or one per tenant) and serve it until SIGINT."""
    from repro.cluster.service import ClusterConfig, ClusterService
    from repro.cluster.supervisor import SupervisorConfig
    from repro.errors import ClusterConfigError

    if (args.data_dir is None) == (args.tenants is None):
        raise ReproError(
            "cluster serve needs exactly one of --data-dir (single "
            "tenant) or --tenants (a name -> store-directory JSON map)"
        )

    # A read-only fleet loads no writer code: the seal policy and the
    # standby's config are built only when a writer runs.
    writer = standby = None
    if args.writable or args.standby:
        from repro.store.sealing import CheckpointPolicy

        # A fleet's seal is an epoch bump on every worker, so it is paced
        # by records and age only: a consolidation never seals on its own.
        writer = CheckpointPolicy(
            args.seal_every or None, args.seal_interval or None,
            on_consolidate=False,
        )
    if args.standby:
        from repro.cluster.standby import StandbyConfig

        standby = StandbyConfig(
            poll_seconds=args.standby_poll,
            promotion_log=(
                str(args.promotion_log)
                if args.promotion_log is not None else None
            ),
            writer=writer,
        )
    config = ClusterConfig(
        workers=args.workers,
        replication=args.replication,
        supervisor=SupervisorConfig(
            heartbeat_interval=args.heartbeat_interval,
            backoff_base=args.restart_backoff,
            backoff_cap=args.restart_backoff_cap,
        ),
        writer=writer if args.writable else None,
        standby=standby,
    )
    announce = lambda line: print(
        f"[supervisor] {line}", file=out, flush=True
    )

    if args.tenants is not None:
        if config.writer is not None or config.standby is not None:
            raise ClusterConfigError(
                "multi-tenant cluster serving is read-only: --writable/"
                "--standby own one store lock and one WAL each — run the "
                "writer per tenant behind its own front end"
            )

        def attach(name: str, path: pathlib.Path) -> ClusterService:
            announce(f"tenant {name}: attaching {path}")
            return ClusterService(
                path, config, host=args.host, announce=announce, tenant=name
            )

        registry = serving.tenant_registry(
            read_tenant_map(args.tenants), attach,
            max_resident=args.max_resident,
        )
        registry.add_detach_hook(
            lambda name, _fleet: announce(f"tenant {name}: detaching (LRU)")
        )
        return serving.serve_until_signal(
            registry,
            lambda: f"cluster serving {serving.tenants_banner(registry)}",
            args, out, draining="stopping the router and workers",
        )

    fleet = ClusterService(args.data_dir, config, announce=announce)

    def banner() -> str:
        served = fleet.window.served
        plan = served.plan
        return (
            f"cluster serving {served.n_documents} documents "
            f"across {plan.n_shards} shards "
            f"(epoch {served.epoch}, checkpoint {served.checkpoint}"
            + (
                f", replication={plan.replication}"
                if plan.replication > 1 else ""
            )
            + ", ann"
            + (", writable" if fleet.writer is not None else "")
            + (", standby" if fleet.standby is not None else "")
            + ")"
        )

    return serving.serve_until_signal(
        fleet, banner, args, out,
        draining="stopping the router and workers",
    )
