"""Noisy input (§5.4): OCR-robust retrieval and LSI spelling correction.

Run:  python examples/noisy_input_and_spelling.py

Part 1 corrupts a collection at the paper's 8.8% word error rate and
shows LSI retrieval is barely disturbed.  Part 2 builds Kukich's n-gram
× word LSI matrix and corrects misspellings by nearest-word lookup.
"""

from repro.apps.noisy import noisy_retrieval_experiment
from repro.apps.spelling import SpellingCorrector
from repro.corpus.noise import ocr_corrupt
from repro.corpus.synthetic import SyntheticSpec, topic_collection


def main() -> None:
    # ---- Part 1: retrieving imperfectly recognized text --------------- #
    col = topic_collection(
        SyntheticSpec(
            n_topics=5, docs_per_topic=15, doc_length=50,
            concepts_per_topic=12, synonyms_per_concept=3,
            queries_per_topic=2, query_length=3, query_synonym_shift=0.5,
        ),
        seed=17,
    )
    sample = col.documents[0][:70]
    print("clean scan:    ", sample)
    print("noisy scan:    ", ocr_corrupt(sample, 0.3, seed=1))

    result = noisy_retrieval_experiment(
        col, k=12, word_error_rate=0.088, seed=3
    )
    print(f"\nword error rate 8.8% (the pen-machine study's rate):")
    for engine in ("lsi", "keyword"):
        clean = result["clean"][engine]["mean_metric"]
        noisy = result["noisy"][engine]["mean_metric"]
        print(f"  {engine:<8s} clean {clean:.3f} → noisy {noisy:.3f} "
              f"({result[f'{engine}_degradation_pct']:+.1f}%)")
    print("(the paper: LSI 'was not disrupted' — the correctly spelled "
          "context words carry the meaning)")

    # ---- Part 2: spelling correction ---------------------------------- #
    lexicon = [
        "culture", "discharge", "patients", "pressure", "abnormalities",
        "depressed", "oestrogen", "generation", "behavior", "disease",
        "blood", "study", "respect", "christmas", "hospital", "kidney",
    ]
    corrector = SpellingCorrector(lexicon, ngram_sizes=(1, 2))
    print(f"\nspelling corrector over {len(lexicon)} words "
          "(rows = unigrams+bigrams, columns = words):")
    for wrong in ("pressre", "cultre", "dizease", "hospitl", "pacients"):
        suggestions = corrector.suggest(wrong, top=2)
        pretty = ", ".join(f"{w} ({c:.2f})" for w, c in suggestions)
        print(f"  {wrong:<10s} → {pretty}")


if __name__ == "__main__":
    main()
