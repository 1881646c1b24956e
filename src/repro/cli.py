"""Command-line interface: ``python -m repro <command>``.

The paper's toolchain was a set of command-line utilities ("a number of
software tools have been developed to perform operations such as parsing
document texts, creating a term by document matrix, computing the
truncated SVD ..., matching user queries to documents, and adding new
terms or documents").  This CLI is the same toolbox over this library:

``index``
    Build an LSI database from a directory of ``.txt`` files (or a
    single file with one document per line) and save it.
``query``
    Load a database and rank documents for a query string.
``add``
    Fold new documents into a saved database (Eq. 7) or SVD-update it
    (``--method update``), saving the result.
``info``
    Print a database's dimensions, weighting, and provenance.
``terms``
    Nearest-term (thesaurus) lookup.
``serve``
    Run the long-lived async query server (:mod:`repro.server`):
    micro-batched ``/search``, live ``/add`` through the index manager,
    ``/healthz`` and ``/stats``, graceful drain on SIGINT/SIGTERM.
    With ``--data-dir`` the index is durable (:mod:`repro.store`):
    every ``/add`` is write-ahead-logged before acknowledgment, the
    store's seal loop checkpoints on policy (the same loop the writable
    cluster runs), and a warm restart recovers the exact pre-crash
    index from the same directory.
    With repeated ``--tenant NAME=PATH`` flags the server hosts many
    named indexes behind one port (:mod:`repro.tenancy`): requests
    route by ``X-Tenant`` header or ``tenant`` body field, cold
    tenants mmap-attach on first query, and ``--max-resident`` bounds
    how many stay attached (LRU detach after in-flight queries drain).
``store``
    Maintain a durable data directory: ``inspect`` (checkpoints, WAL,
    recovery state), ``verify`` (checksum audit of every array and log
    record), ``compact`` (fold the WAL into a fresh checkpoint and
    truncate it).
``cluster``
    Multi-process serving over a durable store (:mod:`repro.cluster`):
    ``serve`` spawns shard worker processes that memory-map the newest
    checkpoint and mounts a scatter-gather router behind the HTTP front
    end — with ``--writable`` it also embeds the primary writer, so
    ``/add`` WAL-logs through the store, checkpoints seal on policy,
    and worker epochs bump live; with ``--tenants tenants.json`` it
    serves N named stores behind one front end, spawning each tenant's
    worker fleet lazily on first query; ``status`` queries a running
    cluster's health (per-worker epochs, writer lag); ``worker`` is the
    per-shard process entry point the supervisor launches.
``tenants``
    List a multi-tenant server's tenants (``list``) or print their
    residency, quota, and per-tenant index status (``status``).
``stats``
    Print the observability snapshot: counters, gauges, latency
    histograms, recent tracing spans, and (with ``--slowlog``) the
    slow-query log a server wrote with its own ``--slowlog`` flag.

Observability
-------------
Every data command runs with tracing enabled and, on success, merges
the process's metrics registry and recent spans into a state file
(``.repro_obs.json`` in the working directory, overridable with
``--obs-state`` or ``$REPRO_OBS_STATE``; ``--no-obs`` skips the write).
``repro stats`` renders the merged view, so an ``index`` + ``query``
sequence — separate processes — still yields one coherent report of
search latency histograms, cache hit rates, and Lanczos matvec/flop
gauges.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys
from typing import Sequence

from repro import obs
from repro.core.build import fit_lsi
from repro.core.persistence import load_model, save_model
from repro.core.similarity import nearest_terms
from repro.errors import ReproError
from repro.retrieval.engine import LSIRetrieval
from repro.text.parser import ParsingRules

__all__ = ["main", "build_parser"]


def _read_documents(path: pathlib.Path) -> tuple[list[str], list[str]]:
    """Directory of .txt files → one document each; file → one per line."""
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise ReproError(f"no .txt files under {path}")
        return [f.read_text(encoding="utf-8") for f in files], [
            f.stem for f in files
        ]
    if path.is_file():
        lines = [
            line.strip()
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        if not lines:
            raise ReproError(f"{path} contains no documents")
        return lines, [f"L{i + 1}" for i in range(len(lines))]
    raise ReproError(f"{path} does not exist")


def _add_serving_options(
    parser: argparse.ArgumentParser,
    *,
    port: str,
    max_resident: str,
    queue_depth: str,
) -> None:
    """The options ``serve`` and ``cluster serve`` share, declared once.

    Names, types and defaults are identical on both commands; the
    keyword arguments carry each command's own help wording where the
    option means something slightly different there.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080, help=port)
    parser.add_argument(
        "--slow-ms", type=float, default=500.0,
        help="slow-query log threshold in milliseconds (0 disables)",
    )
    parser.add_argument(
        "--slowlog", type=pathlib.Path, default=None,
        help="JSONL file for slow-query records (default in-memory only)",
    )
    parser.add_argument("--max-resident", type=int, default=None,
                        help=max_resident)
    parser.add_argument("--queue-depth", type=int, default=256,
                        help=queue_depth)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the toolbox (see module doc)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Latent Semantic Indexing toolbox (Berry/Dumais/"
                    "Letsche SC'95 reproduction)",
    )
    parser.add_argument(
        "--obs-state", type=pathlib.Path, default=None,
        help="observability state file (default $REPRO_OBS_STATE or "
             "./.repro_obs.json)",
    )
    parser.add_argument(
        "--no-obs", action="store_true",
        help="do not persist metrics/spans for `repro stats`",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an LSI database")
    p_index.add_argument("source", type=pathlib.Path,
                         help=".txt directory or one-doc-per-line file")
    p_index.add_argument("output", type=pathlib.Path, help=".npz database")
    p_index.add_argument("-k", "--factors", type=int, default=100)
    p_index.add_argument("--scheme", default="log_entropy",
                         help="weighting scheme, e.g. log_entropy, raw_none")
    p_index.add_argument("--min-doc-freq", type=int, default=1)
    p_index.add_argument(
        "--svd-method", default="auto",
        choices=["auto", "dense", "lanczos", "gkl"],
        help="truncated-SVD backend (default auto)",
    )

    p_query = sub.add_parser("query", help="rank documents for a query")
    p_query.add_argument("database", type=pathlib.Path)
    p_query.add_argument("text", nargs="+", help="query words")
    p_query.add_argument("-n", "--top", type=int, default=10)
    p_query.add_argument("--threshold", type=float, default=None)

    p_add = sub.add_parser("add", help="add documents to a database")
    p_add.add_argument("database", type=pathlib.Path)
    p_add.add_argument("source", type=pathlib.Path)
    p_add.add_argument("--method", choices=["fold", "update"],
                       default="fold")
    p_add.add_argument("--output", type=pathlib.Path, default=None,
                       help="write here instead of overwriting")

    p_info = sub.add_parser("info", help="describe a database")
    p_info.add_argument("database", type=pathlib.Path)

    p_terms = sub.add_parser("terms", help="nearest terms (thesaurus)")
    p_terms.add_argument("database", type=pathlib.Path)
    p_terms.add_argument("term")
    p_terms.add_argument("-n", "--top", type=int, default=10)

    p_serve = sub.add_parser(
        "serve",
        help="run the async query server (micro-batching, live /add)",
    )
    p_serve.add_argument(
        "source", type=pathlib.Path, nargs="?", default=None,
        help=".txt directory / one-doc-per-line file (live-updatable) "
             "or a saved .npz database (read-only); optional when "
             "--data-dir holds a recoverable store",
    )
    p_serve.add_argument("-k", "--factors", type=int, default=50)
    p_serve.add_argument("--scheme", default="log_entropy")
    p_serve.add_argument("--min-doc-freq", type=int, default=1)
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="largest micro-batch coalesced into one GEMM")
    p_serve.add_argument(
        "--data-dir", type=pathlib.Path, default=None,
        help="durable store directory: WAL-logged /add, background "
             "checkpoints, crash-recoverable warm restarts",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=int, default=64,
        help="checkpoint after this many WAL records (0 disables)",
    )
    p_serve.add_argument(
        "--tenant", action="append", default=None, metavar="NAME=PATH",
        dest="tenants",
        help="host a named tenant from a saved .npz database or a "
             "durable store directory (repeatable; cold tenants "
             "mmap-attach on first query; excludes a positional "
             "source and --data-dir)",
    )
    _add_serving_options(
        p_serve,
        port="TCP port (0 picks an ephemeral port)",
        max_resident="multi-tenant: most tenants attached at once — past "
                     "the cap the least-recently-used detaches after its "
                     "in-flight queries drain (default unbounded)",
        queue_depth="bounded admission queue (excess → 429)",
    )

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
    pc_serve.add_argument("--heartbeat-interval", type=float, default=1.0,
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
        "--seal-every", type=int, default=64, metavar="RECORDS",
        help="writable: seal + bump once this many WAL records are "
             "dirty (0 disables the record trigger)",
    )
    pc_serve.add_argument(
        "--seal-interval", type=float, default=15.0, metavar="SECONDS",
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
        "--standby-poll", type=float, default=0.5, metavar="SECONDS",
        help="standby: epoch-tail and lock-probe cadence",
    )
    pc_serve.add_argument(
        "--promotion-log", type=pathlib.Path, default=None,
        help="standby: JSONL file recording the promotion timeline",
    )
    _add_serving_options(
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

    return parser


def _cmd_index(args, out) -> int:
    docs, ids = _read_documents(args.source)
    k = min(args.factors, len(docs), 10**9)
    model = fit_lsi(
        docs, max(1, min(k, len(docs))),
        scheme=args.scheme,
        rules=ParsingRules(min_doc_freq=args.min_doc_freq),
        doc_ids=ids,
        method=args.svd_method,
    )
    written = save_model(model, args.output)
    print(
        f"indexed {model.n_documents} documents, {model.n_terms} terms, "
        f"k={model.k} → {written}",
        file=out,
    )
    return 0


def _cmd_query(args, out) -> int:
    model = load_model(args.database)
    query = " ".join(args.text)
    # Serve through the retrieval engine so the query takes the same
    # instrumented fast path production traffic does (lsi.search span,
    # query-vector cache, memoized V_k Σ_k, argpartition top-k).
    engine = LSIRetrieval(model)
    ranked = engine.search(query, top=args.top, threshold=args.threshold)
    for doc_index, cosine in ranked:
        print(f"{cosine:.4f}  {model.doc_ids[doc_index]}", file=out)
    return 0


def _cmd_add(args, out) -> int:
    from repro.text.tdm import count_vector
    from repro.text.tokenizer import tokenize
    import numpy as np

    model = load_model(args.database)
    docs, ids = _read_documents(args.source)
    if args.method == "fold":
        from repro.updating.folding import fold_in_texts

        model = fold_in_texts(model, docs, doc_ids=ids)
    else:
        from repro.updating.svd_update import update_documents

        counts = np.stack(
            [count_vector(tokenize(t), model.vocabulary) for t in docs],
            axis=1,
        )
        model = update_documents(model, counts, ids, exact=True)
    target = args.output or args.database
    written = save_model(model, target)
    print(
        f"{args.method}: +{len(docs)} documents → {written} "
        f"(now {model.n_documents} documents, provenance "
        f"{model.provenance})",
        file=out,
    )
    return 0


def _cmd_info(args, out) -> int:
    model = load_model(args.database)
    print(f"documents : {model.n_documents}", file=out)
    print(f"terms     : {model.n_terms}", file=out)
    print(f"factors   : {model.k}", file=out)
    print(f"weighting : {model.scheme.name}", file=out)
    print(f"provenance: {model.provenance}", file=out)
    print(f"sigma     : {model.s[:8].round(4).tolist()}"
          + ("..." if model.k > 8 else ""), file=out)
    return 0


def _cmd_terms(args, out) -> int:
    model = load_model(args.database)
    for term, cosine in nearest_terms(model, args.term, top=args.top):
        print(f"{cosine:.4f}  {term}", file=out)
    return 0


def _durable_state(args, out):
    """Recover or seed the durable store behind ``serve --data-dir``."""
    from repro.server import ServingState, manager_from_texts
    from repro.store import CheckpointPolicy, DurableIndexStore

    if DurableIndexStore.exists(args.data_dir):
        store = DurableIndexStore.open(args.data_dir)
        report = store.last_recovery
        print(
            f"recovered {report.n_documents} documents from "
            f"{report.checkpoint_path.name} "
            f"(+{report.replayed_records} WAL records replayed"
            + (", torn tail dropped" if report.torn_tail else "")
            + ")",
            file=out, flush=True,
        )
        if args.source is not None:
            print(
                f"note: --data-dir {args.data_dir} is recoverable; "
                f"ignoring source {args.source}",
                file=out, flush=True,
            )
    else:
        if args.source is None:
            raise ReproError(
                f"{args.data_dir} holds no recoverable store; provide a "
                "document source to seed it"
            )
        docs, ids = _read_documents(args.source)
        manager = manager_from_texts(
            docs, ids,
            k=args.factors,
            scheme=args.scheme,
            min_doc_freq=args.min_doc_freq,
        )
        store = DurableIndexStore.initialize(args.data_dir, manager)
        print(f"seeded durable store at {args.data_dir}", file=out, flush=True)
    return ServingState.for_store(
        store, CheckpointPolicy(every_records=args.checkpoint_every or None)
    )


def _parse_tenant_specs(specs: list[str]) -> dict[str, pathlib.Path]:
    """``NAME=PATH`` flags → an ordered ``{name: path}`` map."""
    tenants: dict[str, pathlib.Path] = {}
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(
                f"--tenant expects NAME=PATH, got {spec!r}"
            )
        if name in tenants:
            raise ReproError(f"duplicate tenant {name!r}")
        tenants[name] = pathlib.Path(path)
    return tenants


def _cmd_serve(args, out) -> int:
    """Build the serving state and run the async server until SIGINT."""
    from repro.server import ServingState, state_from_texts

    store = None
    state = None
    tenant_registry = None
    if args.tenants:
        if args.source is not None or args.data_dir is not None:
            raise ReproError(
                "--tenant excludes a positional source and --data-dir; "
                "every index comes from a NAME=PATH flag"
            )
        from repro.tenancy import IndexRegistry

        tenant_names = _parse_tenant_specs(args.tenants)
        tenant_registry = IndexRegistry(max_resident=args.max_resident)
        for name, path in tenant_names.items():
            if not path.exists():
                raise ReproError(
                    f"tenant {name!r}: {path} does not exist"
                )
            tenant_registry.register(name, data_dir=path)
    elif args.data_dir is not None:
        state = _durable_state(args, out)
        store = state.store
    elif args.source is None:
        raise ReproError(
            "serve needs a document source, --data-dir, or --tenant flags"
        )
    elif args.source.suffix == ".npz":
        state = ServingState.for_model(load_model(args.source))
    else:
        docs, ids = _read_documents(args.source)
        state = state_from_texts(
            docs, ids,
            k=args.factors,
            scheme=args.scheme,
            min_doc_freq=args.min_doc_freq,
        )
    if state is not None and args.data_dir is None:
        # In-memory serving trains its quantizer at startup (the durable
        # path gets one from the checkpoint, trained by the writer).
        state.train_ann()

    def banner() -> str:
        if tenant_registry is not None:
            names = ", ".join(tenant_registry.tenant_ids)
            return (
                f"serving {len(tenant_registry.tenant_ids)} tenants "
                f"({names}) lazily"
                + (
                    f", max {args.max_resident} resident"
                    if args.max_resident is not None else ""
                )
            )
        snapshot = state.current()
        return (
            f"serving {snapshot.n_documents} documents "
            f"(k={snapshot.k}, "
            f"{'live-updatable' if state.writable else 'read-only'}"
            + (", durable" if store is not None else "")
            + (", ann" if snapshot.ann is not None else "")
            + ")"
        )

    def flush_store() -> None:
        if store is not None:
            # Graceful-drain flush: a clean restart replays zero records.
            store.close(flush=True)
            print("store flushed", file=out, flush=True)

    return _serve_until_signal(
        tenant_registry or state, banner, args, out,
        draining="rejecting new requests, flushing the queue",
        after_drain=flush_store,
        max_batch=args.max_batch,
    )


def _serve_until_signal(
    hosted, banner, args, out, *, draining: str, after_drain=None, **scorer
) -> int:
    """Put the front end over ``hosted``, bind, announce, serve until
    SIGINT/SIGTERM, then drain cleanly.

    ``hosted`` is a tenant registry, or one bare state or fleet;
    ``scorer`` is the in-process scorer's part of the ``ServerConfig``
    (the shared serving options are read off ``args``).  ``banner()``
    is the start-up line, to which the bound ``on http://host:port`` is
    appended (supervisors and tests parse it); ``after_drain`` runs once
    the service has drained, before the final ``drained cleanly``.
    """
    import asyncio
    import signal

    from repro.server import QueryService, ServerConfig, start_http_server

    config = ServerConfig(
        queue_depth=args.queue_depth,
        slow_ms=args.slow_ms,
        slowlog_path=(
            str(args.slowlog) if args.slowlog is not None else None
        ),
        **scorer,
    )

    async def run() -> None:
        service = QueryService(hosted, config)
        server = await start_http_server(service, args.host, args.port)
        port = server.sockets[0].getsockname()[1]
        print(
            f"{banner()} on http://{args.host}:{port}",
            file=out, flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # platforms without loop signals
                signal.signal(sig, lambda *_: stop.set())
        await stop.wait()
        print(f"draining: {draining}", file=out, flush=True)
        server.close()
        await server.wait_closed()
        await service.drain()
        if after_drain is not None:
            after_drain()
        print("drained cleanly", file=out, flush=True)

    asyncio.run(run())
    return 0


def _cmd_cluster(args, out) -> int:
    """Dispatch the ``cluster`` verbs: serve / status / worker."""
    if args.action == "worker":
        from repro.cluster.worker import run_worker

        return run_worker(
            args.data_dir, args.plan, args.shard,
            replica=args.replica, host=args.host, port=args.port,
            tenant=args.tenant, out=out,
        )

    if args.action == "status":
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

    # serve
    from repro.cluster import (
        ClusterConfig,
        ClusterService,
        StandbyConfig,
        SupervisorConfig,
    )
    from repro.errors import ClusterConfigError
    from repro.store import CheckpointPolicy

    if (args.data_dir is None) == (args.tenants is None):
        raise ReproError(
            "cluster serve needs exactly one of --data-dir (single "
            "tenant) or --tenants (a name -> store-directory JSON map)"
        )

    # A fleet's seal is an epoch bump on every worker, so it is paced by
    # records and age only: a consolidation never seals on its own.
    writer = CheckpointPolicy(
        args.seal_every if args.seal_every > 0 else None,
        args.seal_interval if args.seal_interval > 0 else None,
        on_consolidate=False,
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
        standby=StandbyConfig(
            poll_seconds=args.standby_poll,
            promotion_log=(
                str(args.promotion_log)
                if args.promotion_log is not None else None
            ),
            writer=writer,
        ) if args.standby else None,
    )

    tenant_map: dict[str, pathlib.Path] | None = None
    if args.tenants is not None:
        try:
            raw = json.loads(args.tenants.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ReproError(f"cannot read {args.tenants}: {exc}")
        except ValueError as exc:
            raise ReproError(f"{args.tenants} is not valid JSON: {exc}")
        if not isinstance(raw, dict) or not raw or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in raw.items()
        ):
            raise ReproError(
                f"{args.tenants} must be a non-empty JSON object "
                "mapping tenant name -> store directory"
            )
        tenant_map = {name: pathlib.Path(path) for name, path in raw.items()}
        for name, path in tenant_map.items():
            if not path.is_dir():
                raise ReproError(
                    f"tenant {name!r}: {path} is not a directory"
                )

    announce = lambda line: print(
        f"[supervisor] {line}", file=out, flush=True
    )

    if tenant_map is None:
        hosted = fleet = ClusterService(
            args.data_dir, config, announce=announce
        )
    else:
        if config.writer is not None or config.standby is not None:
            raise ClusterConfigError(
                "multi-tenant cluster serving is read-only: --writable/"
                "--standby own one store lock and one WAL each — run the "
                "writer per tenant behind its own front end"
            )
        from repro.tenancy import IndexRegistry

        def attach(name: str, path: pathlib.Path) -> ClusterService:
            announce(f"tenant {name}: attaching {path}")
            return ClusterService(
                path, config, host=args.host, announce=announce, tenant=name
            )

        hosted = IndexRegistry(max_resident=args.max_resident)
        for name, path in tenant_map.items():
            hosted.register(
                name, data_dir=path,
                loader=functools.partial(attach, name, path),
            )
        hosted.add_detach_hook(
            lambda name, _fleet: announce(f"tenant {name}: detaching (LRU)")
        )

    def banner() -> str:
        if tenant_map is not None:
            names = ", ".join(tenant_map)
            return (
                f"cluster serving {len(tenant_map)} tenants ({names}) "
                "lazily"
                + (
                    f", max {args.max_resident} resident"
                    if args.max_resident is not None else ""
                )
            )
        handle = fleet.handle
        return (
            f"cluster serving {handle.n_documents} documents "
            f"across {handle.plan.n_shards} shards "
            f"(epoch {handle.epoch}, checkpoint {handle.checkpoint}"
            + (
                f", replication={handle.plan.replication}"
                if handle.plan.replication > 1 else ""
            )
            + (", ann" if handle.ann else "")
            + (", writable" if fleet.primary is not None else "")
            + (", standby" if fleet.standby is not None else "")
            + ")"
        )

    return _serve_until_signal(
        hosted, banner, args, out,
        draining="stopping the router and workers",
    )


def _cmd_store(args, out) -> int:
    """Maintain a durable data directory (inspect / verify / compact).

    ``inspect`` and ``verify`` are read-only: they scan manifests and
    the WAL without opening the store, so they are safe against a data
    directory a live server owns.  ``compact`` rewrites the WAL and
    therefore takes the single-writer lock — it refuses (with a clear
    error) while a server holds the directory.
    """
    from repro.store import DurableIndexStore, verify_store

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
        print(f"error: {args.data_dir} is not a store", file=sys.stderr)
        return 1

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
    from repro.store import read_store_status

    description = read_store_status(args.data_dir)
    if args.json:
        print(json.dumps(description, indent=2, sort_keys=True), file=out)
        return 0
    print(f"store     : {description['data_dir']}", file=out)
    print(
        f"documents : {description['n_documents']} "
        f"({description['pending']} pending fold-in)",
        file=out,
    )
    for ckpt in description["checkpoints"]:
        ann = (
            f"ann={ckpt['ann_clusters']} cells" if ckpt["ann"] else "ann=no"
        )
        print(
            f"checkpoint: {pathlib.Path(ckpt['path']).name}  "
            f"docs={ckpt['n_documents']}  wal_lsn={ckpt['wal_lsn']}  "
            f"{ckpt['bytes']} bytes  {ann}  ({ckpt['reason']})",
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


def _cmd_tenants(args, out) -> int:
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


def _state_path(args) -> pathlib.Path:
    return args.obs_state if args.obs_state is not None else obs.export.default_state_path()


def _stats_tenant_table(dirs: list[pathlib.Path], args, out) -> int:
    """Repeated ``--data-dir`` flags: one status row per tenant store.

    Lock-free read-only scan (:func:`~repro.store.read_store_status`
    never opens the store), so it is safe against the data directories
    of a live multi-tenant server.  Tenant names are the directory
    basenames.
    """
    from repro.store import DurableIndexStore, read_store_status

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
        f"{'tenant':<16} {'docs':>8} {'pending':>8} {'ckpts':>6} "
        f"{'wal':>6} {'dirty':>6} {'replay':>7}"
    )
    print(header, file=out)
    for name in sorted(rows):
        status = rows[name]
        print(
            f"{name:<16} {status['n_documents']:>8} "
            f"{status['pending']:>8} {len(status['checkpoints']):>6} "
            f"{status['wal']['records']:>6} {status['dirty_records']:>6} "
            f"{status['last_recovery_replayed']:>7}",
            file=out,
        )
        for problem in status["problems"]:
            print(f"  PROBLEM: {problem}", file=out)
    return 0


def _cmd_stats(args, out) -> int:
    """Render the persisted + live observability state."""
    if args.data_dir is not None and len(args.data_dir) > 1:
        return _stats_tenant_table(args.data_dir, args, out)
    if args.data_dir is not None:
        # Publish store.* gauges (wal_records, checkpoint_age_seconds,
        # last_recovery_replayed, ...) into this process's registry so they
        # merge into the rendered snapshot below.  Read-only: the store is
        # never opened (no lock, no WAL handle, no tail truncation), so
        # this is safe to run against a live server's data directory.
        from repro.store import DurableIndexStore, publish_store_gauges

        data_dir = args.data_dir[0]
        if not DurableIndexStore.exists(data_dir):
            raise ReproError(f"{data_dir} is not a durable store")
        publish_store_gauges(data_dir)
    path = _state_path(args)
    state = obs.load_state(path) or {"metrics": {}, "spans": []}
    # Merge in anything recorded by this process (in-process callers see
    # live data; the fresh `python -m repro stats` process contributes
    # nothing and just renders the file).
    metrics = obs.merge_snapshots(
        state.get("metrics", {}), obs.registry.snapshot()
    )
    spans = list(state.get("spans", [])) + [
        s.to_dict() for s in obs.recent_spans()
    ]
    slow_entries = (
        obs.read_slowlog(args.slowlog) if args.slowlog is not None else []
    )
    if args.json:
        blob = {"schema": obs.export.SCHEMA, "metrics": metrics, "spans": spans}
        if args.slowlog is not None:
            blob["slow_queries"] = slow_entries
        print(json.dumps(blob, indent=2, sort_keys=True), file=out)
    else:
        print(f"observability state: {path}", file=out)
        print(obs.format_snapshot(metrics), file=out)
        print(obs.format_spans(spans, limit=args.spans), file=out)
        if args.slowlog is not None:
            print(obs.format_slowlog(slow_entries), file=out)
    if args.reset:
        try:
            path.unlink()
        except OSError:
            pass
        print(f"reset: removed {path}", file=out)
    return 0


_COMMANDS = {
    "index": _cmd_index,
    "query": _cmd_query,
    "add": _cmd_add,
    "info": _cmd_info,
    "terms": _cmd_terms,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "store": _cmd_store,
    "tenants": _cmd_tenants,
    "stats": _cmd_stats,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stats":
        try:
            return _cmd_stats(args, out)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # Data commands run traced so `repro stats` can show their spans;
    # the previous tracing state is restored for in-process callers.
    prev_tracing = obs.enable_tracing(True)
    try:
        code = _COMMANDS[args.command](args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        obs.enable_tracing(prev_tracing)
    if code == 0 and not args.no_obs:
        try:
            obs.dump_state(_state_path(args))
        except OSError as exc:  # unwritable state dir: warn, don't fail
            print(f"warning: could not persist obs state: {exc}",
                  file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
