"""Matching people instead of documents (§5.4).

Run:  python examples/reviewer_assignment.py

Reviewers are represented by texts they have written; submitted
abstracts are folded into the same space; the assignment honours the
paper's constraints (each paper reviewed p times, each reviewer at most
r papers).  Also demos the Bellcore-Advisor expert finder.
"""

from repro.apps.people import assign_reviewers, find_experts, people_vectors
from repro.core.build import fit_lsi
from repro.corpus.synthetic import SyntheticSpec, topic_collection


def main() -> None:
    n_topics = 5
    col = topic_collection(
        SyntheticSpec(
            n_topics=n_topics, docs_per_topic=8, queries_per_topic=2,
            query_length=4, query_synonym_shift=0.3,
        ),
        seed=6,
    )
    model = fit_lsi(col.documents, k=10, scheme="log_entropy", seed=0)

    # Two reviewers per research area, each described by 4 of their texts.
    authored = [
        [t * 8 + i, t * 8 + i + 2, t * 8 + i + 4, t * 8 + i + 6]
        for t in range(n_topics)
        for i in range(2)
    ]
    reviewer_area = [t for t in range(n_topics) for _ in range(2)]
    reviewers = people_vectors(model, authored)
    print(f"{reviewers.shape[0]} reviewers across {n_topics} areas")

    # Bellcore Advisor: who should answer this question?
    question = col.queries[2]
    print(f"\nadvisor query: {question!r}")
    for person, cosine in find_experts(model, reviewers, question, top=3):
        print(f"  reviewer {person} (area {reviewer_area[person]}) "
              f"cos={cosine:.2f}")

    # Conference assignment: 10 submissions, p=2 reviews each, r=5 cap.
    submissions = col.queries
    assignment = assign_reviewers(
        model, reviewers, submissions,
        reviews_per_paper=2, max_papers_per_reviewer=5,
    )
    print(f"\nassignment (p=2, r=5), total similarity "
          f"{assignment.total_similarity:.2f}:")
    for paper, revs in enumerate(assignment.assignments):
        areas = [reviewer_area[r] for r in revs]
        print(f"  paper {paper} (area {paper // 2}) → reviewers {revs} "
              f"(areas {areas})")
    load = assignment.reviewer_load(reviewers.shape[0])
    print(f"reviewer loads: {load.tolist()} (cap 5)")


if __name__ == "__main__":
    main()
