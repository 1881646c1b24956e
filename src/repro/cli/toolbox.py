"""The toolbox: the paper's utilities over one LSI database, a store.

``index``
    Build an LSI database from a directory of ``.txt`` files (or a
    single file with one document per line) and write it as a durable
    store (:mod:`repro.store`) whose first checkpoint carries the
    coarse quantizer.
``query``
    Rank documents for a query string.
``add``
    Add documents through the store: write-ahead-logged under its lock,
    folded in or consolidated by the index manager's §4.3 policy, then
    flushed to a checkpoint.
``info``
    Print a database's dimensions, weighting, and provenance.
``terms``
    Nearest-term (thesaurus) lookup.

``query``, ``info`` and ``terms`` read the newest checkpoint through
:func:`~repro.store.recovery.open_checkpoint`: lock-free and read-only,
so they are safe against a store a server holds.
:func:`read_documents` is the one reader of a document source, and the
``_bounded`` argparse types are the one range check on a numeric
option; ``serve`` and ``cluster`` share both.  Each command imports the
library code it runs, so ``import repro.cli`` — every ``python -m
repro`` start, a shard worker's too — loads none of it.
"""

from __future__ import annotations

import argparse
import pathlib

from repro.errors import ReproError


def _text(path: pathlib.Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        # e.g. a binary database file given where a document source goes
        raise ReproError(f"{path} is not UTF-8 text") from None


def read_documents(path: pathlib.Path) -> tuple[list[str], list[str]]:
    """Directory of .txt files → one document each; file → one per line."""
    if path.is_dir():
        files = sorted(path.glob("*.txt"))
        if not files:
            raise ReproError(f"no .txt files under {path}")
        return [_text(f) for f in files], [f.stem for f in files]
    if path.is_file():
        lines = [
            line.strip() for line in _text(path).splitlines() if line.strip()
        ]
        if not lines:
            raise ReproError(f"{path} contains no documents")
        return lines, [f"L{i + 1}" for i in range(len(lines))]
    raise ReproError(f"{path} does not exist")


def _bounded(cast, low, *, strict: bool):
    """An argparse ``type``: ``cast(text)``, refused below ``low`` (or at
    it, when ``strict``) as a usage error naming the option.  It keeps
    ``cast``'s name, so a non-number still reads ``invalid int value``."""

    def parse(text: str):
        value = cast(text)
        if not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {text}"
            )
        return value

    parse.__name__ = cast.__name__
    return parse


POSITIVE_INT = _bounded(int, 1, strict=False)
NONNEGATIVE_INT = _bounded(int, 0, strict=False)  # 0 disables
NONNEGATIVE_FLOAT = _bounded(float, 0, strict=False)  # 0 disables
POSITIVE_FLOAT = _bounded(float, 0, strict=True)


def add_parsers(sub) -> None:
    """Declare the five toolbox commands on the top-level subparsers."""
    p_index = sub.add_parser("index", help="build an LSI database")
    p_index.add_argument("source", type=pathlib.Path,
                         help=".txt directory or one-doc-per-line file")
    p_index.add_argument("output", type=pathlib.Path,
                         help="store directory to create")
    p_index.add_argument("-k", "--factors", type=POSITIVE_INT, default=100)
    p_index.add_argument("--scheme", default="log_entropy",
                         help="weighting scheme, e.g. log_entropy, raw_none")
    p_index.add_argument("--min-doc-freq", type=int, default=1)
    p_index.add_argument(
        "--svd-method", default="auto",
        choices=["auto", "dense", "lanczos"],
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

    p_info = sub.add_parser("info", help="describe a database")
    p_info.add_argument("database", type=pathlib.Path)

    p_terms = sub.add_parser("terms", help="nearest terms (thesaurus)")
    p_terms.add_argument("database", type=pathlib.Path)
    p_terms.add_argument("term")
    p_terms.add_argument("-n", "--top", type=int, default=10)


def _checkpoint_model(path: pathlib.Path):
    """The newest checkpoint's model: lock-free and read-only."""
    from repro.store.recovery import open_checkpoint

    return open_checkpoint(path).model()


def cmd_index(args, out) -> int:
    from repro.core.build import fit_lsi_keeping_tdm
    from repro.store.durable import DurableIndexStore
    from repro.text.parser import ParsingRules
    from repro.updating.manager import LSIIndexManager

    if args.output.exists() and not args.output.is_dir():
        raise ReproError(f"{args.output} exists and is not a directory")
    docs, ids = read_documents(args.source)
    k = min(args.factors, len(docs))
    # The store keeps the raw counts a later consolidation refits from.
    tdm, model = fit_lsi_keeping_tdm(
        docs, k,
        scheme=args.scheme,
        rules=ParsingRules(min_doc_freq=args.min_doc_freq),
        doc_ids=ids,
        method=args.svd_method,
    )
    manager = LSIIndexManager.restore(
        tdm=tdm, k=k, model=model, base_model=model, scheme=args.scheme
    )
    DurableIndexStore.initialize(args.output, manager).close()
    print(
        f"indexed {model.n_documents} documents, {model.n_terms} terms, "
        f"k={model.k} → {args.output}",
        file=out,
    )
    return 0


def cmd_query(args, out) -> int:
    from repro.retrieval.engine import LSIRetrieval
    from repro.serving.snapshot import check_search_args

    check_search_args(top=args.top, threshold=args.threshold)
    model = _checkpoint_model(args.database)
    # The engine's search is the exact ranking every served query gets.
    ranked = LSIRetrieval(model).search(
        " ".join(args.text), top=args.top, threshold=args.threshold
    )
    for doc_index, cosine in ranked:
        print(f"{cosine:.4f}  {model.doc_ids[doc_index]}", file=out)
    return 0


def cmd_add(args, out) -> int:
    from repro.store.durable import DurableIndexStore

    docs, ids = read_documents(args.source)
    if args.source.is_file():
        # Line numbers restart at L1 in every file, so they would repeat
        # the ids held already: the manager mints fresh ones instead.
        ids = None
    if not DurableIndexStore.exists(args.database):
        raise ReproError(f"{args.database} holds no store")
    store = DurableIndexStore.open(args.database)
    try:
        event = store.add_texts(docs, ids)
    finally:
        store.close(flush=True)
    model = store.manager.model
    print(
        f"{event.action}: +{len(docs)} documents → {args.database} "
        f"(now {model.n_documents} documents, provenance "
        f"{model.provenance})",
        file=out,
    )
    return 0


def cmd_info(args, out) -> int:
    model = _checkpoint_model(args.database)
    print(f"documents : {model.n_documents}", file=out)
    print(f"terms     : {model.n_terms}", file=out)
    print(f"factors   : {model.k}", file=out)
    print(f"weighting : {model.scheme.name}", file=out)
    print(f"provenance: {model.provenance}", file=out)
    print(f"sigma     : {model.s[:8].round(4).tolist()}"
          + ("..." if model.k > 8 else ""), file=out)
    return 0


def cmd_terms(args, out) -> int:
    from repro.core.similarity import nearest_terms
    from repro.serving.snapshot import check_search_args

    check_search_args(top=args.top)
    model = _checkpoint_model(args.database)
    for term, cosine in nearest_terms(model, args.term, top=args.top):
        print(f"{cosine:.4f}  {term}", file=out)
    return 0
