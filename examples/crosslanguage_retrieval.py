"""Cross-language retrieval (§5.4) — no translation involved.

Run:  python examples/crosslanguage_retrieval.py

Implements the Landauer-Littman recipe on a generated French/English
corpus: train the LSI space on combined dual-language abstracts, fold in
monolingual documents, then match queries across languages and measure
mate retrieval.
"""

from repro.apps.crosslanguage import (
    CrossLanguageRetrieval,
    mate_retrieval_accuracy,
)
from repro.corpus.crosslang import crosslang_collection


def main() -> None:
    corpus = crosslang_collection(seed=13)
    print(f"training pairs (combined EN+FR abstracts): {len(corpus.combined)}")
    print(f"held-out monolingual mates: {len(corpus.english)} EN + "
          f"{len(corpus.french)} FR")
    print(f"sample combined doc: {corpus.combined[0][:70]}...")

    # Train on combined abstracts; fold both monolingual sets in (Eq. 7).
    retrieval = CrossLanguageRetrieval.train(corpus, k=24, seed=0)
    print(f"\nspace: {retrieval.model}")

    # A French query against English documents — "there is no difficult
    # translation involved in retrieval from the multilingual LSI space".
    fq = corpus.queries_fr[0]
    print(f"\nFrench query: {fq!r}")
    for doc_id, cosine in retrieval.search(fq, language="en", top=3):
        idx = int(doc_id[2:])
        print(f"  {doc_id:<6s} cos={cosine:.2f} topic={corpus.doc_topic[idx]}"
              f" (query topic: {corpus.query_topic[0]})")

    # Mate retrieval: each English document should find its French
    # translation first, and vice versa.
    fr_ids = [f"fr{i}" for i in range(len(corpus.french))]
    en_ids = [f"en{i}" for i in range(len(corpus.english))]
    acc_ef = mate_retrieval_accuracy(
        retrieval, corpus.english, fr_ids, target_language="fr"
    )
    acc_fe = mate_retrieval_accuracy(
        retrieval, corpus.french, en_ids, target_language="en"
    )
    print(f"\nmate retrieval EN→FR: {acc_ef:.0%}")
    print(f"mate retrieval FR→EN: {acc_fe:.0%}")
    print("(the original study found cross-language retrieval as "
          "effective as translating the query first)")


if __name__ == "__main__":
    main()
