"""Serving commands: ``serve``, and what ``cluster serve`` shares with it.

``serve``
    Run the long-lived async query server (:mod:`repro.server`):
    micro-batched ``/search``, live ``/add`` through the index manager,
    ``/healthz`` and ``/stats``, graceful drain on SIGINT/SIGTERM.  A
    store ``repro index`` wrote is served read-only.
    With ``--data-dir`` the index is durable (:mod:`repro.store`):
    the store's one owner (the same one the writable cluster runs)
    write-ahead-logs every ``/add`` before acknowledgment and
    checkpoints on policy, and a warm restart recovers the exact
    pre-crash index from the same directory.
    With repeated ``--tenant NAME=PATH`` flags the server hosts many
    named indexes behind one port (:mod:`repro.tenancy`): requests
    route by ``X-Tenant`` header or ``tenant`` body field, cold
    tenants attach on first query, and ``--max-resident`` bounds
    how many stay attached (LRU detach after in-flight queries drain).
"""

from __future__ import annotations

import argparse
import functools
import pathlib

from repro.cli.toolbox import NONNEGATIVE_INT, POSITIVE_INT, read_documents
from repro.errors import ReproError


def add_serving_options(
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
    parser.add_argument("--queue-depth", type=POSITIVE_INT, default=256,
                        help=queue_depth)


def add_serve_parser(sub) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run the async query server (micro-batching, live /add)",
    )
    p_serve.add_argument(
        "source", type=pathlib.Path, nargs="?", default=None,
        help=".txt directory / one-doc-per-line file (live-updatable) "
             "or a store written by `repro index` (read-only); optional "
             "when --data-dir holds a recoverable store",
    )
    p_serve.add_argument("-k", "--factors", type=int, default=50)
    p_serve.add_argument("--scheme", default="log_entropy")
    p_serve.add_argument("--min-doc-freq", type=int, default=1)
    p_serve.add_argument("--max-batch", type=POSITIVE_INT, default=32,
                         help="largest micro-batch coalesced into one GEMM")
    p_serve.add_argument(
        "--data-dir", type=pathlib.Path, default=None,
        help="durable store directory: WAL-logged /add, background "
             "checkpoints, crash-recoverable warm restarts",
    )
    p_serve.add_argument(
        "--checkpoint-every", type=NONNEGATIVE_INT, default=64,
        help="checkpoint after this many WAL records (0 disables)",
    )
    p_serve.add_argument(
        "--tenant", action="append", default=None, metavar="NAME=PATH",
        dest="tenants",
        help="host a named tenant from a durable store directory "
             "(repeatable; cold tenants "
             "mmap-attach on first query; excludes a positional "
             "source and --data-dir)",
    )
    add_serving_options(
        p_serve,
        port="TCP port (0 picks an ephemeral port)",
        max_resident="multi-tenant: most tenants attached at once — past "
                     "the cap the least-recently-used detaches after its "
                     "in-flight queries drain (default unbounded)",
        queue_depth="bounded admission queue (excess → 429)",
    )


# --------------------------------------------------------------------- #
# the tenant map both serve commands host
# --------------------------------------------------------------------- #
def parse_tenant_specs(specs: list[str]) -> list[tuple[str, pathlib.Path]]:
    """``serve --tenant NAME=PATH`` flags → ``(name, path)`` pairs."""
    pairs = []
    for spec in specs:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise ReproError(f"--tenant expects NAME=PATH, got {spec!r}")
        pairs.append((name, pathlib.Path(path)))
    return pairs


def tenant_registry(pairs, attach, *, max_resident: int | None):
    """A ``(name, path)`` map → a registry of lazily attached tenants.

    The one path both serve commands take: each tenant attaches through
    ``attach(name, path)`` on its first query, and detaches past
    ``max_resident``.
    """
    from repro.tenancy.registry import IndexRegistry

    tenants: dict[str, pathlib.Path] = {}
    for name, path in pairs:
        if name in tenants:
            raise ReproError(f"duplicate tenant {name!r}")
        if not path.exists():
            raise ReproError(f"tenant {name!r}: {path} does not exist")
        tenants[name] = path
    if not tenants:
        raise ReproError("no tenant to serve")
    registry = IndexRegistry(max_resident=max_resident)
    for name, path in tenants.items():
        registry.register(
            name, loader=functools.partial(attach, name, path), data_dir=path
        )
    return registry


def tenants_banner(registry) -> str:
    """``N tenants (a, b) lazily[, max M resident]``."""
    names = registry.tenant_ids
    return f"{len(names)} tenants ({', '.join(names)}) lazily" + (
        f", max {registry.max_resident} resident"
        if registry.max_resident is not None else ""
    )


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #
def _fit_source(args):
    """The live index manager ``serve`` fits from its document source."""
    from repro.server.state import manager_from_texts

    docs, ids = read_documents(args.source)
    return manager_from_texts(
        docs, ids,
        k=args.factors,
        scheme=args.scheme,
        min_doc_freq=args.min_doc_freq,
    )


def _durable_state(args, out):
    """Recover or seed the durable store behind ``serve --data-dir``."""
    from repro.server.state import ServingState
    from repro.store.durable import DurableIndexStore
    from repro.store.sealing import CheckpointPolicy

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
        store = DurableIndexStore.initialize(args.data_dir, _fit_source(args))
        print(f"seeded durable store at {args.data_dir}", file=out, flush=True)
    return ServingState.for_store(
        store,
        CheckpointPolicy(every_records=args.checkpoint_every or None),
        max_batch=args.max_batch,
    )


def cmd_serve(args, out) -> int:
    """Build what ``serve`` hosts and run the async server until SIGINT."""
    from repro.server.state import ServingState
    from repro.serving.ann import CoarseQuantizer
    from repro.store.durable import DurableIndexStore

    if args.tenants:
        if args.source is not None or args.data_dir is not None:
            raise ReproError(
                "--tenant excludes a positional source and --data-dir; "
                "every index comes from a NAME=PATH flag"
            )
        registry = tenant_registry(
            parse_tenant_specs(args.tenants),
            lambda _name, path: ServingState.open(
                path, max_batch=args.max_batch
            ),
            max_resident=args.max_resident,
        )
        return serve_until_signal(
            registry, lambda: f"serving {tenants_banner(registry)}", args,
            out, draining="rejecting new requests, flushing the queue",
        )

    if args.data_dir is not None:
        state = _durable_state(args, out)
    elif args.source is None:
        raise ReproError(
            "serve needs a document source, --data-dir, or --tenant flags"
        )
    elif DurableIndexStore.exists(args.source):
        state = ServingState.open(args.source, max_batch=args.max_batch)
    else:
        # In-memory serving trains its quantizer at startup (a store
        # hands over the one its checkpoint carries).
        manager = _fit_source(args)
        model = manager.model
        state = ServingState.for_manager(
            manager,
            ann=CoarseQuantizer.train(model.V, model.s),
            max_batch=args.max_batch,
        )

    def banner() -> str:
        snapshot = state.current()
        return (
            f"serving {snapshot.n_documents} documents "
            f"(k={snapshot.k}, "
            f"{'live-updatable' if state.writable else 'read-only'}"
            + (", durable" if state.writer is not None else "")
            + (", ann" if snapshot.ann is not None else "")
            + ")"
        )

    return serve_until_signal(
        state, banner, args, out,
        draining="rejecting new requests, flushing the queue",
    )


def serve_until_signal(hosted, banner, args, out, *, draining: str) -> int:
    """Put the front end over ``hosted``, bind, announce, serve until
    SIGINT/SIGTERM, then drain cleanly.

    ``hosted`` is a tenant registry, or one bare state or fleet (the
    shared serving options are read off ``args``).  ``banner()`` is the
    start-up line, to which the bound ``on http://host:port`` is
    appended (supervisors and tests parse it).  A bare backend that owns
    its store's writer closes it with a final flush as it drains, and
    ``store flushed`` is printed before ``drained cleanly``.
    """
    import asyncio
    import signal

    from repro.server.http import start_http_server
    from repro.server.service import QueryService, ServerConfig

    config = ServerConfig(
        queue_depth=args.queue_depth,
        slow_ms=args.slow_ms,
        slowlog_path=(
            str(args.slowlog) if args.slowlog is not None else None
        ),
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
        # Read after the drain: a standby adopts its writer mid-run.
        if getattr(hosted, "writer", None) is not None:
            print("store flushed", file=out, flush=True)
        print("drained cleanly", file=out, flush=True)

    asyncio.run(run())
    return 0
