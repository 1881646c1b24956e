"""Text processing: tokenization, parsing rules, vocabularies, matrices.

Implements the paper's document-preparation pipeline (§2.1, §5.4):

* words are identified "by looking for white spaces and punctuation in
  ASCII text" — :mod:`repro.text.tokenizer`;
* **no stemming** is applied (the paper is explicit that LSI handles
  morphological variants through co-occurrence, e.g. *doctor* ends up near
  *doctors* but not *doctoral*);
* stop words are removed — :mod:`repro.text.stopwords`;
* indexing keywords must satisfy a parsing rule, e.g. "keywords appear in
  more than one topic" for the Table 2 example — :mod:`repro.text.parser`;
* the term-document matrix of raw frequencies (Eq. 4) is assembled in CSC
  form — :mod:`repro.text.tdm`.
"""
