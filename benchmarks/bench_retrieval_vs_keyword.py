"""§5.1 — LSI vs the standard keyword vector method.

Regenerates: "the average precision using LSI ranged from comparable to
30% better than that obtained using standard keyword vector methods.
The LSI method performs best relative to standard vector methods when
the queries and relevant documents do not share many words" — a sweep of
the query-synonym gap from 0 (queries reuse document wording) to 1
(queries always use different synonyms).  Times one full compare.
"""

from conftest import emit
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.evaluation.harness import compare_engines
from repro.retrieval.engine import LSIRetrieval
from repro.retrieval.keyword import KeywordRetrieval


def _spec(synonyms: int) -> SyntheticSpec:
    return SyntheticSpec(
        n_topics=8, docs_per_topic=20, doc_length=40,
        concepts_per_topic=15, synonyms_per_concept=synonyms,
        queries_per_topic=3, query_length=2,
        query_synonym_shift=0.9, polysemy=0.25,
        background_vocab=40, background_rate=0.25,
    )


def _compare(synonyms: int, seed: int = 7):
    col = topic_collection(_spec(synonyms), seed=seed)
    lsi = LSIRetrieval.from_texts(
        col.documents, k=16, scheme="log_entropy", seed=0
    )
    kw = KeywordRetrieval.from_texts(col.documents, scheme="log_entropy")
    return compare_engines(lsi, kw, col)


def test_lsi_vs_keyword_synonymy_sweep(benchmark):
    levels = (1, 2, 4)  # surface forms per concept: 1 = no synonymy
    results = {s: _compare(s) for s in levels if s != 4}
    results[4] = benchmark(_compare, 4)

    rows = [f"{'synonyms':>9s}{'LSI':>8s}{'keyword':>9s}{'LSI adv':>9s}"]
    for s in levels:
        cmp = results[s]
        rows.append(
            f"{s:>9d}{cmp.candidate['mean_metric']:>8.3f}"
            f"{cmp.baseline['mean_metric']:>9.3f}"
            f"{cmp.improvement_pct:>+8.1f}%"
        )
    rows.append("paper: 'comparable to 30% better', largest when queries "
                "and relevant docs share few words")
    emit("§5.1 — LSI vs keyword vector (3-pt avg precision)", rows)

    # Shape claims: LSI never loses; its advantage grows with synonymy
    # and spans the paper's 'comparable .. 30%+' band across the sweep:
    # single-digit % with one surface form per concept, 30%+ with four.
    advantages = [results[s].improvement_pct for s in levels]
    assert all(a >= -2.0 for a in advantages)
    assert advantages == sorted(advantages)
    assert advantages[0] < 15.0
    assert advantages[-1] > 30.0
