"""§5.4 — queries as multiple points of interest (ref [18]).

Regenerates the motivation for the relevance-density method: a
two-facet information need scored as a single centroid vector misses one
facet's documents; the multi-point rules recover both.  Times the
density-rule search.
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi
from repro.core.query import project_query
from repro.core.similarity import cosine_similarities
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.evaluation.metrics import average_precision
from repro.retrieval.multitopic import MultiTopicQuery, multi_topic_scores


def test_multitopic_vs_centroid(benchmark):
    # A crowded space (12 topics in k=6 dimensions) is where the
    # centroid representation fails: the midpoint of two facets lands
    # near unrelated topics.
    n_topics = 12
    col = topic_collection(
        SyntheticSpec(
            n_topics=n_topics, docs_per_topic=12, doc_length=40,
            concepts_per_topic=12, synonyms_per_concept=2,
            queries_per_topic=1, query_length=3, query_synonym_shift=0.3,
        ),
        seed=41,
    )
    model = fit_lsi(col.documents, k=6, scheme="log_entropy", seed=0)

    # Two-facet needs: every pair of adjacent topics.
    results = {"centroid": [], "max": [], "mean": [], "density": []}
    for t in range(0, n_topics, 2):
        qa, qb = col.queries[t], col.queries[t + 1]
        relevant = col.relevant(t) | col.relevant(t + 1)
        centroid = (project_query(model, qa) + project_query(model, qb)) / 2
        cscores = cosine_similarities(model, centroid)
        results["centroid"].append(
            average_precision(list(np.argsort(-cscores)), relevant)
        )
        mq = MultiTopicQuery.from_texts(model, [qa, qb])
        for rule in ("max", "mean", "density"):
            if rule == "density" and t == 0:
                scores = benchmark(
                    multi_topic_scores, model, mq, rule="density"
                )
            else:
                scores = multi_topic_scores(model, mq, rule=rule)
            results[rule].append(
                average_precision(list(np.argsort(-scores)), relevant)
            )

    means = {name: float(np.mean(v)) for name, v in results.items()}
    rows = [f"{'scoring rule':<12s}{'mean AP (2-facet needs)':>24s}"]
    for name in ("centroid", "mean", "density", "max"):
        rows.append(f"{name:<12s}{means[name]:>24.3f}")
    rows.append("ref [18]: represent multi-topic queries as multiple "
                "points of interest instead of one centroid")
    emit("§5.4 — multi-topic queries", rows)

    assert means["max"] > means["centroid"] + 0.1
    assert means["density"] > means["centroid"] + 0.1
