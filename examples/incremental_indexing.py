"""Real-time index maintenance (§5.6) with the managed LSI index.

Run:  python examples/incremental_indexing.py

A database that changes frequently: documents arrive in batches, the
index must stay queryable, and the manager decides — per the Table 7
cost model — when cheap folding suffices and when to consolidate with a
true SVD-update.
"""

from repro.core.query import project_query
from repro.core.similarity import retrieve
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm
from repro.updating.manager import LSIIndexManager


def main() -> None:
    col = topic_collection(
        SyntheticSpec(n_topics=5, docs_per_topic=25, doc_length=40,
                      concepts_per_topic=12, queries_per_topic=1),
        seed=61,
    )
    initial, stream = col.documents[:75], col.documents[75:]

    manager = LSIIndexManager(
        build_tdm(initial, ParsingRules()),
        k=10,
        scheme=None,
        distortion_budget=0.1,   # consolidate once folds exceed 10% of n
    )
    print(f"initial index: {manager.model}")

    query = col.queries[0]
    actions = []
    for batch_no, lo in enumerate(range(0, len(stream), 5)):
        batch = stream[lo : lo + 5]
        event = manager.add_texts(batch)
        actions.append(event.action)
        print(
            f"batch {batch_no}: +{len(batch)} docs → {event.action:<10s} "
            f"pending={manager.pending:<3d} drift={event.doc_loss:.3f}  "
            f"({event.reason[:60]})"
        )
        # The index answers queries after every batch, no waiting.
        qhat = project_query(manager.model, query)
        top = retrieve(manager.model, qhat, top=1)
        print(f"          queryable: top hit for user query = {top[0][0]}")

    print(f"\nfinal index: {manager.model}")
    print(f"maintenance history: {actions}")
    print(f"documents in consolidated matrix: {manager.tdm.n_documents}, "
          f"pending fold-ins: {manager.pending}")


if __name__ == "__main__":
    main()
