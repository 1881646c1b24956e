"""Novel applications of LSI (paper §5.4).

Each module is a self-contained application built on the public core API:

* :mod:`repro.apps.thesaurus` — return nearby *terms* instead of documents
  ("online thesauri ... automatically constructed by LSI").
* :mod:`repro.apps.crosslanguage` — Landauer & Littman's combined-abstract
  training, monolingual fold-in, cross-language matching.
* :mod:`repro.apps.synonyms` — the TOEFL synonym test (LSI 64% vs 33%
  word overlap).
* :mod:`repro.apps.people` — matching people instead of documents: the
  Bellcore Advisor and conference reviewer assignment with the paper's
  p-reviews-per-paper / r-papers-per-reviewer constraints.
* :mod:`repro.apps.spelling` — Kukich's n-gram × word LSI spelling
  corrector.
* :mod:`repro.apps.noisy` — OCR-robust retrieval (8.8% word error rate).
"""
