"""§5.4 (Matching People) — Bellcore Advisor and reviewer assignment.

Regenerates: expert finding (query → nearest people) and the constrained
reviewer assignment ("each paper was reviewed p times and ... each
reviewer received no more than r papers"), checking assignment quality
against the topical ground truth.  Times the constrained assignment.
"""

import numpy as np

from conftest import emit
from repro.apps.people import assign_reviewers, find_experts, people_vectors
from repro.core.build import fit_lsi
from repro.corpus.synthetic import SyntheticSpec, topic_collection


def test_reviewer_assignment(benchmark):
    n_topics = 6
    col = topic_collection(
        SyntheticSpec(
            n_topics=n_topics, docs_per_topic=8, queries_per_topic=2,
            query_length=4, query_synonym_shift=0.3,
        ),
        seed=6,
    )
    model = fit_lsi(col.documents, k=12, scheme="log_entropy", seed=0)
    # Three reviewers per topic, each represented by texts they "wrote".
    authored = [
        [t * 8 + i, t * 8 + i + 3]
        for t in range(n_topics)
        for i in range(3)
    ]
    reviewer_topic = [t for t in range(n_topics) for _ in range(3)]
    vecs = people_vectors(model, authored)
    submissions = col.queries  # 12 "papers", 2 per topic
    paper_topic = [t for t in range(n_topics) for _ in range(2)]

    asg = benchmark(
        assign_reviewers, model, vecs, submissions,
        reviews_per_paper=3, max_papers_per_reviewer=4,
    )

    load = asg.reviewer_load(len(authored))
    topical = np.mean([
        np.mean([reviewer_topic[r] == paper_topic[i] for r in revs])
        for i, revs in enumerate(asg.assignments)
    ])
    experts = find_experts(model, vecs, submissions[0], top=3)

    rows = [
        f"papers={len(submissions)} reviewers={len(authored)} "
        "p=3 r=4",
        f"reviewer load: max={load.max()} total={load.sum()}",
        f"fraction of assignments topically correct: {topical:.2f}",
        f"total assignment similarity: {asg.total_similarity:.2f}",
        f"advisor: top experts for paper 0 = {[e for e, _ in experts]} "
        f"(true topic reviewers: 0, 1, 2)",
    ]
    emit("§5.4 — reviewer assignment / Bellcore Advisor", rows)

    assert all(len(r) == 3 for r in asg.assignments)
    assert load.max() <= 4
    assert topical > 0.8  # "as good as those of human experts"
    assert {e for e, _ in experts} <= {0, 1, 2}
