"""§5.4 (Modeling Human Memory) — the TOEFL synonym test.

Regenerates: "LSI scored 64% correct, compared with 33% correct for
word-overlap methods, and 64% correct for the average student" — the
80-item 4-alternative test answered by term-vector similarity vs by
document co-occurrence counting.  Times the LSI test run.
"""

from conftest import emit
from repro.apps.synonyms import run_synonym_test, word_overlap_baseline
from repro.core.build import fit_lsi
from repro.corpus.synonym_test import synonym_test
from repro.text.tdm import build_tdm


def test_toefl_synonym_test(benchmark):
    st = synonym_test(n_items=80, seed=21)
    model = fit_lsi(st.documents, k=40, scheme="log_entropy", seed=0)
    tdm = build_tdm(st.documents)

    lsi = benchmark(run_synonym_test, model, st)
    overlap = word_overlap_baseline(tdm, st)

    rows = [
        f"items: {lsi.n_items} (TOEFL uses 80), 4 alternatives each",
        f"LSI term-vector method : {lsi.n_correct}/{lsi.n_items} "
        f"({100 * lsi.accuracy:.0f}%)   [paper: 64%]",
        f"word-overlap baseline  : {overlap.n_correct}/{overlap.n_items} "
        f"({100 * overlap.accuracy:.0f}%)   [paper: 33%; chance: 25%]",
    ]
    emit("§5.4 — TOEFL synonym test", rows)

    # Shape claims: LSI far above chance and far above overlap; overlap
    # near chance (synonyms rarely co-occur, by construction and nature).
    assert lsi.accuracy > 0.55
    assert overlap.accuracy < 0.45
    assert lsi.accuracy - overlap.accuracy > 0.2
