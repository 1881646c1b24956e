"""§5.4 (Noisy Input) — Kukich's n-gram LSI spelling correction.

Regenerates: the unigram/bigram × correctly-spelled-word matrix, queries
located "at the weighted vector sum of these elements", nearest word
returned as the correction — evaluated over systematic single-edit
corruptions of a medical lexicon.  Times the correction of one batch.
"""

import numpy as np

from conftest import emit
from repro.apps.spelling import SpellingCorrector
from repro.corpus.noise import _corrupt_word
from repro.util.rng import ensure_rng

LEXICON = [
    "culture", "discharge", "patients", "pressure", "abnormalities",
    "depressed", "oestrogen", "generation", "behavior", "disease",
    "blood", "study", "respect", "christmas", "hospital", "kidney",
    "insulin", "metabolic", "vascular", "chromosomal", "marrow",
    "cerebral", "oxygen", "epithelium", "irradiation", "cortisone",
]


def test_spelling_correction_accuracy(benchmark):
    corrector = SpellingCorrector(LEXICON, ngram_sizes=(1, 2))
    rng = ensure_rng(5)
    pairs = [
        (_corrupt_word(w, rng), w)
        for w in LEXICON
        for _ in range(4)
    ]

    accuracy = benchmark(corrector.accuracy, pairs)
    top3 = np.mean([
        truth in [w for w, _ in corrector.suggest(wrong, top=3)]
        for wrong, truth in pairs
    ])
    identity = corrector.accuracy([(w, w) for w in LEXICON])

    rows = [
        f"lexicon: {len(LEXICON)} words; {len(pairs)} single-edit "
        "corruptions",
        f"top-1 correction accuracy: {accuracy:.2f}",
        f"top-3 correction accuracy: {top3:.2f}",
        f"correctly spelled words left unchanged: {identity:.2f}",
        "examples: "
        + ", ".join(
            f"{wrong}→{corrector.correct(wrong)}" for wrong, _ in pairs[:5]
        ),
    ]
    emit("§5.4 — n-gram LSI spelling correction", rows)

    assert identity == 1.0
    assert accuracy > 0.7
    assert top3 > accuracy - 1e-9
