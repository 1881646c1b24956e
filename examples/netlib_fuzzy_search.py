"""NETLIB-style fuzzy code search (§5.4) with composite queries.

Run:  python examples/netlib_fuzzy_search.py

Index a catalogue of numerical routines plus NA-Digest-style articles;
search it the way users ask ("fit a regression line"), by example
("more routines like dgels2"), and with mixed composite queries.
"""

from repro.apps.netlib import NetlibSearch
from repro.corpus.netlib_like import netlib_catalogue
from repro.retrieval.composite import CompositeQuery


def main() -> None:
    cat = netlib_catalogue(seed=5)
    search = NetlibSearch.build(cat, k=16, seed=0)
    print(f"indexed {len(cat.names)} routines + {len(cat.digests)} digest "
          "articles")

    # Task-phrased fuzzy queries — none of these words are routine names.
    for query in ("fit regression line", "solve linear equations",
                  "signal frequencies filter"):
        results = search.fuzzy(query, top=3)
        print(f"\nfuzzy {query!r}:")
        for name, cosine in results:
            print(f"  {name:<10s} cos={cosine:.2f}")
        print(f"  (exact-name lookup finds: "
              f"{[search.exact(w) for w in query.split()]})")

    # Query by example.
    example = cat.names[5]
    print(f"\nmore routines like {example}:")
    for name, cosine in search.more_like(example, top=3):
        print(f"  {name:<10s} cos={cosine:.2f}")

    # Composite: "like dgels-family routines, but emphasise sparse
    # storage" — a document example plus free text in one query.
    composite = (
        CompositeQuery(search.model)
        .add_document(cat.names[5], weight=1.0)
        .add_text("sparse storage memory", weight=1.5)
    )
    print("\ncomposite (like", cat.names[5], "+ 'sparse storage memory'):")
    for name, cosine in composite.search(top=4):
        if not name.startswith("digest"):
            print(f"  {name:<10s} cos={cosine:.2f}")


if __name__ == "__main__":
    main()
