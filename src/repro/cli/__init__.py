"""Command-line interface: ``python -m repro <command>``.

The paper's toolchain was a set of command-line utilities ("a number of
software tools have been developed to perform operations such as parsing
document texts, creating a term by document matrix, computing the
truncated SVD ..., matching user queries to documents, and adding new
terms or documents").  This CLI is the same toolbox over this library,
one module per command group — :mod:`.toolbox` (the utilities over
one store), :mod:`.serving` (``serve``), :mod:`.cluster` and
:mod:`.views` (``store``, ``stats``, ``tenants``) — assembled here into
one parser tree.

Observability
-------------
Every data command runs with tracing enabled and, on success, merges
the process's metrics registry and recent spans into a state file
(``.repro_obs.json`` in the working directory, overridable with
``--obs-state`` or ``$REPRO_OBS_STATE``; ``--no-obs`` skips the write).
``repro stats`` renders the merged view, so an ``index`` + ``query``
sequence — separate processes — still yields one coherent report of
search latency histograms, serving counters, and Lanczos matvec/flop
gauges.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Sequence

from repro.cli import cluster, serving, toolbox, views
from repro.errors import ReproError
from repro.obs.export import dump_state
from repro.obs.tracing import enable_tracing

__all__ = ["main", "build_parser"]


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
    toolbox.add_parsers(sub)
    serving.add_serve_parser(sub)
    views.add_store_parser(sub)
    cluster.add_parser(sub)
    views.add_tenants_parser(sub)
    views.add_stats_parser(sub)
    return parser


#: Command -> handler(args, out); ``cluster`` dispatches on its verb.
_COMMANDS = {
    "index": toolbox.cmd_index,
    "query": toolbox.cmd_query,
    "add": toolbox.cmd_add,
    "info": toolbox.cmd_info,
    "terms": toolbox.cmd_terms,
    "serve": serving.cmd_serve,
    "cluster": {
        "serve": cluster.cmd_serve,
        "status": cluster.cmd_status,
        "worker": cluster.cmd_worker,
    },
    "store": views.cmd_store,
    "tenants": views.cmd_tenants,
    "stats": views.cmd_stats,
}


def main(argv: Sequence[str] | None = None, out=None) -> int:
    """Entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    if isinstance(command, dict):
        command = command[args.action]
    # Data commands run traced so `repro stats` can show their spans;
    # the previous tracing state is restored for in-process callers.
    # `stats` itself only renders: it neither traces nor persists.
    data = args.command != "stats"
    prev_tracing = enable_tracing(data)
    try:
        code = command(args, out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        enable_tracing(prev_tracing)
    if code == 0 and data and not args.no_obs:
        try:
            dump_state(views.state_path(args))
        except OSError as exc:  # unwritable state dir: warn, don't fail
            print(f"warning: could not persist obs state: {exc}",
                  file=sys.stderr)
    return code
