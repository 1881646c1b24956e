"""§5.4 — the NETLIB fuzzy-search application.

Regenerates: LSI as "a fuzzy search option ... for retrieving
algorithms, code descriptions, and short articles from the NA-Digest
electronic newsletter" — task-phrased queries against a routine
catalogue, with exact-name lookup (the pre-LSI behaviour) and lexical
matching as contrasts.  Times the fuzzy query path.
"""

import numpy as np

from conftest import emit
from repro.apps.netlib import NetlibSearch
from repro.corpus.netlib_like import netlib_catalogue
from repro.evaluation.harness import evaluate_run, run_engine
from repro.retrieval.keyword import KeywordRetrieval


def test_netlib_fuzzy_search(benchmark):
    cat = netlib_catalogue(seed=5)
    search = NetlibSearch.build(cat, k=16, seed=0)

    def one_query():
        return search.fuzzy(cat.queries[0], top=3)

    benchmark(one_query)

    # Fuzzy hit rate: right family in the top-3 routine results.
    fuzzy_hits = 0
    for q, fam in zip(cat.queries, cat.query_family):
        families = {
            cat.entry_family[cat.names.index(name)]
            for name, _ in search.fuzzy(q, top=3)
        }
        fuzzy_hits += fam in families
    fuzzy_rate = fuzzy_hits / len(cat.queries)

    # Exact-name lookup: task phrasings never match names.
    exact_hits = sum(
        1 for q in cat.queries if any(search.exact(w) for w in q.split())
    )

    # Lexical matching over the catalogue descriptions.
    col = cat.collection()
    kw = KeywordRetrieval.from_texts(
        col.documents, scheme="log_entropy", doc_ids=col.doc_ids
    )
    kw_eval = evaluate_run(run_engine(kw, col), col)

    rows = [
        f"catalogue: {len(cat.names)} routines, {len(cat.digests)} digest "
        "articles indexed alongside",
        f"fuzzy (LSI) right-family-in-top-3: {fuzzy_rate:.2f}",
        f"exact-name lookup hits: {exact_hits}/{len(cat.queries)} "
        "(task words are not routine names)",
        f"lexical matching 3-pt avg precision: "
        f"{kw_eval['mean_metric']:.3f}",
        f"example: {cat.queries[2]!r} → "
        + ", ".join(n for n, _ in search.fuzzy(cat.queries[2], top=3)),
        f"more-like dgesvd-family: "
        + ", ".join(n for n, _ in search.more_like(cat.names[0], top=3)),
    ]
    emit("§5.4 — NETLIB fuzzy search", rows)

    assert fuzzy_rate > 0.75
    assert exact_hits == 0
    assert fuzzy_rate > kw_eval["mean_metric"]
