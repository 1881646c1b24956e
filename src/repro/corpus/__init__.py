"""Corpora: the paper's worked example and synthetic test collections.

* :mod:`repro.corpus.med` — the 18-term × 14-document MEDLINE sample of
  Tables 2-3, the two update topics of Table 5, and the worked query, all
  transcribed from the paper (with the one OCR divergence documented).
* :mod:`repro.corpus.collection` — the test-collection container (documents
  + queries + relevance judgments) used by the evaluation harness.
* :mod:`repro.corpus.synthetic` — seeded generative topic model with
  controllable synonymy/polysemy, standing in for the MED/CISI-style
  collections of §5.1.
* :mod:`repro.corpus.crosslang` — paired dual-language documents for the
  cross-language retrieval study of §5.4.
* :mod:`repro.corpus.trec_like` — a scaled-down TREC analogue: thousands
  of documents and *long* (≥50-term) queries.
* :mod:`repro.corpus.noise` — OCR-style corruption at a configurable word
  error rate (§5.4, Noisy Input).
* :mod:`repro.corpus.synonym_test` — TOEFL-style multiple-choice synonym
  items over a corpus where synonyms share contexts but never co-occur.
"""
