"""§5.4 (Cross-Language Retrieval) — the Landauer & Littman method.

Regenerates: combined-abstract training, monolingual fold-in, and the
two headline results — mate retrieval across languages, and cross-
language retrieval "as effective as first translating the queries ...
and searching a French-only database" (here: as effective as the
monolingual run).  Times the full train+fold pipeline.
"""

from conftest import emit
from repro.apps.crosslanguage import (
    CrossLanguageRetrieval,
    mate_retrieval_accuracy,
)
from repro.corpus.crosslang import crosslang_collection
from repro.evaluation.harness import evaluate_run, run_engine
from repro.retrieval.engine import LSIRetrieval


def test_crosslanguage_mate_retrieval(benchmark):
    xl = crosslang_collection(seed=13)

    clr = benchmark(CrossLanguageRetrieval.train, xl, 24, seed=0)

    fr_ids = [f"fr{i}" for i in range(len(xl.french))]
    en_ids = [f"en{i}" for i in range(len(xl.english))]
    acc_en_fr = mate_retrieval_accuracy(
        clr, xl.english, fr_ids, target_language="fr"
    )
    acc_fr_en = mate_retrieval_accuracy(
        clr, xl.french, en_ids, target_language="en"
    )

    # Monolingual baseline: English-only space, English queries.
    mono = xl.monolingual_collection("en")
    mono_eng = LSIRetrieval.from_texts(
        mono.documents, k=24, scheme="log_entropy", seed=0
    )
    mono_eval = evaluate_run(run_engine(mono_eng, mono), mono)

    # Cross-language retrieval: French queries against English documents
    # in the multilingual space, scored with the English judgments.
    hits = 0
    for qi, q in enumerate(xl.queries_fr):
        ranked = clr.search(q, language="en", top=5)
        topics = {xl.doc_topic[int(h[2:])] for h, _ in ranked}
        hits += xl.query_topic[qi] in topics
    cross_hit_rate = hits / len(xl.queries_fr)

    rows = [
        f"mate retrieval EN→FR: {acc_en_fr:.2f}",
        f"mate retrieval FR→EN: {acc_fr_en:.2f}",
        f"FR queries → EN docs, correct topic in top-5: {cross_hit_rate:.2f}",
        f"monolingual EN space (baseline 3-pt avg prec): "
        f"{mono_eval['mean_metric']:.3f}",
        "paper: multilingual space ≥ single-language spaces; no "
        "translation involved",
    ]
    emit("§5.4 — cross-language retrieval", rows)

    assert acc_en_fr > 0.8 and acc_fr_en > 0.8
    assert cross_hit_rate > 0.8
