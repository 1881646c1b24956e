"""Term-side retrieval and multi-topic queries (§5.4).

Run:  python examples/thesaurus_and_multitopic.py

Three of the paper's "novel applications" on the worked example:
returning nearby *terms* (the automatic thesaurus), suggesting index
terms for a new document, and querying with multiple points of interest.
"""

from repro.apps.thesaurus import build_thesaurus, suggest_index_terms
from repro.core.build import fit_lsi
from repro.corpus.med import MED_TOPICS
from repro.retrieval.multitopic import MultiTopicQuery, multi_topic_search
from repro.text.parser import ParsingRules


def main() -> None:
    model = fit_lsi(
        list(MED_TOPICS.values()), k=2,
        rules=ParsingRules(min_doc_freq=2), doc_ids=list(MED_TOPICS),
    )

    # Automatic thesaurus: nearest terms for every keyword.
    print("automatic thesaurus (top-3 neighbours):")
    thesaurus = build_thesaurus(model, top=3)
    for term in ("oestrogen", "rats", "blood", "culture"):
        neighbours = ", ".join(f"{w} ({c:.2f})" for w, c in thesaurus[term])
        print(f"  {term:<10s} → {neighbours}")

    # Index-term suggestion for an unseen abstract.
    new_abstract = "hormone output of treated patients declined rapidly"
    print(f"\nsuggest index terms for: {new_abstract!r}")
    for term, cosine in suggest_index_terms(model, new_abstract, top=5):
        print(f"  {term:<12s} {cosine:.2f}")

    # Multiple points of interest: hormones OR rodent studies.  A 2-D
    # space saturates cosines, so use a k=4 model for this part.
    model4 = fit_lsi(
        list(MED_TOPICS.values()), k=4,
        rules=ParsingRules(min_doc_freq=2), doc_ids=list(MED_TOPICS),
    )
    query = MultiTopicQuery.from_texts(
        model4, ["oestrogen depressed", "rats fast"]
    )
    print("\nmulti-topic query (hormones OR rodent studies), max rule, k=4:")
    for doc_id, score in multi_topic_search(model4, query, rule="max", top=5):
        print(f"  {doc_id:<4s} {score:.2f}  {MED_TOPICS[doc_id][:55]}")


if __name__ == "__main__":
    main()
