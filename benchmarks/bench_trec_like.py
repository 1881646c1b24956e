"""§5.3 (TREC) — long detailed queries and the sample-then-fold pipeline.

Regenerates three TREC findings:

* rich (≥50-term) queries shrink LSI's advantage over the keyword method
  (paper: 16% retrieval vs 30%+ on the short-query collections);
* the scale workaround — decompose a sample, fold the rest in — loses
  little compared with decomposing everything;
* pooled relevance judgments under-credit systems outside the pool
  (footnote 1).

Times the sample-then-fold pipeline.
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.corpus.trec_like import trec_like_collection
from repro.evaluation.harness import compare_engines, evaluate_run, run_engine
from repro.evaluation.pooling import pooled_judgments
from repro.retrieval.engine import LSIRetrieval
from repro.retrieval.keyword import KeywordRetrieval
from repro.updating.folding import fold_in_texts


def test_trec_long_queries_and_fold_pipeline(benchmark):
    trec = trec_like_collection(
        n_topics=8, docs_per_topic=30, doc_length=60, query_length=50,
        queries_per_topic=2, seed=5,
    )
    short = topic_collection(
        SyntheticSpec(
            n_topics=8, docs_per_topic=30, doc_length=60,
            concepts_per_topic=25, synonyms_per_concept=3,
            queries_per_topic=2, query_length=2, query_synonym_shift=0.9,
            background_vocab=40, background_rate=0.12,
        ),
        seed=5,
    )

    kw_t = KeywordRetrieval.from_texts(trec.documents, scheme="log_entropy")
    lsi_t = LSIRetrieval.from_texts(
        trec.documents, k=24, scheme="log_entropy", seed=0
    )
    long_cmp = compare_engines(lsi_t, kw_t, trec)

    kw_s = KeywordRetrieval.from_texts(short.documents, scheme="log_entropy")
    lsi_s = LSIRetrieval.from_texts(
        short.documents, k=24, scheme="log_entropy", seed=0
    )
    short_cmp = compare_engines(lsi_s, kw_s, short)

    # Sample-then-fold: decompose 60% of the collection, fold the rest.
    def sample_then_fold():
        cut = int(trec.n_documents * 0.6)
        model = fit_lsi(
            trec.documents[:cut], k=24, scheme="log_entropy", seed=0
        )
        return LSIRetrieval(
            fold_in_texts(
                model, trec.documents[cut:],
                doc_ids=[f"F{i}" for i in range(trec.n_documents - cut)],
            )
        )

    folded_engine = benchmark(sample_then_fold)
    folded_eval = evaluate_run(run_engine(folded_engine, trec), trec)
    full_eval = evaluate_run(run_engine(lsi_t, trec), trec)

    # Pooling bias: judge only what the keyword system surfaced.
    kw_run = run_engine(kw_t, trec)
    pooled = pooled_judgments([kw_run], trec, depth=20)
    lsi_pooled = evaluate_run(run_engine(lsi_t, pooled), pooled)

    rows = [
        f"short queries (len 2): LSI {short_cmp.candidate['mean_metric']:.3f} "
        f"vs kw {short_cmp.baseline['mean_metric']:.3f} "
        f"({short_cmp.improvement_pct:+.1f}%)",
        f"long queries (len 50): LSI {long_cmp.candidate['mean_metric']:.3f} "
        f"vs kw {long_cmp.baseline['mean_metric']:.3f} "
        f"({long_cmp.improvement_pct:+.1f}%)",
        "paper: rich TREC queries → smaller (but positive) LSI advantage",
        f"full decomposition:  {full_eval['mean_metric']:.3f}",
        f"sample+fold (60%):   {folded_eval['mean_metric']:.3f}",
        f"LSI under keyword-only pooled judgments: "
        f"{lsi_pooled['mean_metric']:.3f} (true-judgment score "
        f"{full_eval['mean_metric']:.3f})",
    ]
    emit("§5.3 — TREC-style long queries, fold pipeline, pooling", rows)

    # Shape claims.  Long queries collapse the LSI advantage (here the
    # keyword method also reaches the ceiling); the sample+fold pipeline
    # retains most of the full decomposition's quality (the 40% folded
    # tail is represented only through the sample's latent structure, the
    # accuracy trade-off §3.3 describes).
    assert long_cmp.improvement_pct >= -2.0
    assert long_cmp.improvement_pct < short_cmp.improvement_pct
    assert folded_eval["mean_metric"] > 0.65 * full_eval["mean_metric"]
    # Pooled judgments never flatter an out-of-pool system (footnote 1).
    assert lsi_pooled["mean_metric"] <= full_eval["mean_metric"] + 1e-9
