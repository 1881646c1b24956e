"""§5.4 (Noisy Input) — retrieval from OCR-corrupted documents.

Regenerates: Nielsen et al.'s finding that with "error rates ... 8.8% at
the word level, information retrieval performance using LSI was not
disrupted", swept over error rates 0 → 25% with the keyword baseline's
degradation as contrast.  Times the 8.8%-rate experiment.
"""

from conftest import emit
from repro.apps.noisy import noisy_retrieval_experiment
from repro.corpus.synthetic import SyntheticSpec, topic_collection


def test_ocr_degradation_sweep(benchmark):
    col = topic_collection(
        SyntheticSpec(
            n_topics=6, docs_per_topic=15, doc_length=50,
            concepts_per_topic=12, synonyms_per_concept=3,
            queries_per_topic=2, query_length=3, query_synonym_shift=0.5,
            background_vocab=20, background_rate=0.15,
        ),
        seed=17,
    )

    result_088 = benchmark(
        noisy_retrieval_experiment, col, k=12, word_error_rate=0.088, seed=3
    )
    sweep = {0.088: result_088}
    for rate in (0.02, 0.25):
        sweep[rate] = noisy_retrieval_experiment(
            col, k=12, word_error_rate=rate, seed=3
        )

    rows = [f"{'word error':>11s}{'LSI clean':>10s}{'LSI noisy':>10s}"
            f"{'LSI Δ%':>8s}{'kw Δ%':>8s}"]
    for rate in sorted(sweep):
        r = sweep[rate]
        rows.append(
            f"{rate:>11.3f}"
            f"{r['clean']['lsi']['mean_metric']:>10.3f}"
            f"{r['noisy']['lsi']['mean_metric']:>10.3f}"
            f"{r['lsi_degradation_pct']:>+8.1f}"
            f"{r['keyword_degradation_pct']:>+8.1f}"
        )
    rows.append("paper: at 8.8% word error LSI retrieval 'was not disrupted'")
    emit("§5.4 — noisy (OCR) input", rows)

    # Shape claims: at the paper's 8.8% rate LSI keeps ≈ all of its clean
    # performance; heavier corruption hurts more than light corruption.
    assert sweep[0.088]["lsi_degradation_pct"] > -15
    assert (
        sweep[0.25]["noisy"]["lsi"]["mean_metric"]
        <= sweep[0.02]["noisy"]["lsi"]["mean_metric"] + 0.05
    )
