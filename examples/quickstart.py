"""Quickstart: index a small corpus with LSI and query it.

Run:  python examples/quickstart.py

Walks the basic pipeline of the paper's §2 on the 14 MEDLINE topics of
Table 2: fit a k=2 model, pose the worked query, inspect the ranking,
compare with literal keyword matching, and persist the model.
"""

import tempfile

# The quick-start names, from the package's lazily resolved top-level list.
from repro import (
    KeywordRetrieval,
    LSIRetrieval,
    ParsingRules,
    project_query,
    rank_documents,
    retrieve,
)
from repro.corpus.med import MED_QUERY, MED_TOPICS
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.text.tdm import build_tdm
from repro.updating.manager import LSIIndexManager


def main() -> None:
    texts = list(MED_TOPICS.values())
    doc_ids = list(MED_TOPICS)

    # 1. Fit: parse → term-document matrix → truncated SVD (k=2).
    #    The parsing rule of the paper's example: keywords must appear in
    #    more than one topic.  The index manager keeps the matrix beside
    #    the model, so the index can grow and be stored.
    tdm = build_tdm(texts, ParsingRules(min_doc_freq=2), doc_ids=doc_ids)
    manager = LSIIndexManager(tdm, k=2)
    model = manager.model
    print(f"fitted: {model}")
    print(f"singular values: {model.s.round(4)}")

    # 2. Query (Eq. 6): q̂ = qᵀ U_k Σ_k⁻¹.  Stop words and unindexed
    #    words drop out automatically.
    print(f"\nquery: {MED_QUERY!r}")
    qhat = project_query(model, MED_QUERY)
    print(f"query coordinates in k-space: {qhat.round(4)}")

    # 3. Rank all documents by cosine; the paper's threshold view.
    print("\nLSI ranking (cosine ≥ 0.40):")
    for doc_id, cosine in retrieve(model, qhat, threshold=0.40):
        print(f"  {doc_id:<4s} {cosine:.2f}   {MED_TOPICS[doc_id][:58]}")

    # 4. Contrast with lexical matching (§3.2): it misses M9 — christmas
    #    disease, the most relevant topic — and returns irrelevant M1/M10.
    kw = KeywordRetrieval.from_texts(
        texts, rules=ParsingRules(min_doc_freq=2), doc_ids=doc_ids
    )
    lexical = sorted(doc_ids[j] for j in kw.matching_documents(MED_QUERY))
    print(f"\nlexical matching returns: {lexical}")
    print("note: M9 (childhood haemophilia) is missed by word overlap "
          "but retrieved by LSI.")

    # 5. Persist as a store (what `repro index` writes) and reload.
    with tempfile.TemporaryDirectory() as tmp:
        DurableIndexStore.initialize(tmp, manager).close()
        reloaded = open_checkpoint(tmp).model()
        assert rank_documents(reloaded, qhat) == rank_documents(model, qhat)
    print("\nmodel round-tripped through a store")

    # 6. The engine interface used by the evaluation harness.
    engine = LSIRetrieval(model)
    top = engine.search(MED_QUERY, top=3)
    print(f"engine.search top-3: {[(doc_ids[j], round(c, 2)) for j, c in top]}")


if __name__ == "__main__":
    main()
