"""The ``.npz`` toolbox: the paper's utilities over one saved database.

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

:func:`read_documents` is the one reader of a document source; ``serve``
shares it.
"""

from __future__ import annotations

import pathlib

from repro.core.build import fit_lsi
from repro.core.persistence import load_model, save_model
from repro.core.similarity import nearest_terms
from repro.errors import ReproError
from repro.retrieval.engine import LSIRetrieval
from repro.text.parser import ParsingRules


def read_documents(path: pathlib.Path) -> tuple[list[str], list[str]]:
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


def add_parsers(sub) -> None:
    """Declare the five toolbox commands on the top-level subparsers."""
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


def cmd_index(args, out) -> int:
    docs, ids = read_documents(args.source)
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


def cmd_query(args, out) -> int:
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


def cmd_add(args, out) -> int:
    from repro.text.tdm import count_vector
    from repro.text.tokenizer import tokenize
    import numpy as np

    model = load_model(args.database)
    docs, ids = read_documents(args.source)
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


def cmd_info(args, out) -> int:
    model = load_model(args.database)
    print(f"documents : {model.n_documents}", file=out)
    print(f"terms     : {model.n_terms}", file=out)
    print(f"factors   : {model.k}", file=out)
    print(f"weighting : {model.scheme.name}", file=out)
    print(f"provenance: {model.provenance}", file=out)
    print(f"sigma     : {model.s[:8].round(4).tolist()}"
          + ("..." if model.k > 8 else ""), file=out)
    return 0


def cmd_terms(args, out) -> int:
    model = load_model(args.database)
    for term, cosine in nearest_terms(model, args.term, top=args.top):
        print(f"{cosine:.4f}  {term}", file=out)
    return 0
