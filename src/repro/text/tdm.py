"""Term-document matrix construction (Eq. 4).

``A = [a_ij]`` where ``a_ij`` is the raw frequency of term ``i`` in
document ``j``.  Built in CSC form — documents are columns, and every
downstream consumer (SVD, fold-in, document scoring) works column-wise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ShapeError
from repro.sparse.csc import CSCMatrix
from repro.text.parser import ParsedCorpus, ParsingRules, parse_corpus
from repro.text.vocabulary import Vocabulary

__all__ = ["TermDocumentMatrix", "build_tdm", "count_vector"]


@dataclass
class TermDocumentMatrix:
    """A raw-frequency term-document matrix with its labellings.

    Attributes
    ----------
    matrix:
        ``(m, n)`` CSC matrix of term frequencies.
    vocabulary:
        Term labels for the ``m`` rows.
    doc_ids:
        Labels for the ``n`` columns.
    """

    matrix: CSCMatrix
    vocabulary: Vocabulary
    doc_ids: list[str]

    @property
    def shape(self) -> tuple[int, int]:
        """``(terms, documents)``."""
        return self.matrix.shape

    @property
    def n_terms(self) -> int:
        """Number of indexed terms (matrix rows)."""
        return self.matrix.shape[0]

    @property
    def n_documents(self) -> int:
        """Number of documents (matrix columns)."""
        return self.matrix.shape[1]

    def to_dense(self) -> np.ndarray:
        """Materialize the raw-count matrix densely."""
        return self.matrix.to_dense()


def build_tdm(
    texts: Sequence[str],
    rules: ParsingRules | None = None,
    *,
    doc_ids: Sequence[str] | None = None,
    vocabulary: Vocabulary | None = None,
) -> TermDocumentMatrix:
    """Parse ``texts`` and assemble the raw-frequency matrix.

    ``vocabulary`` fixes the term space (fold-in path); otherwise keywords
    are selected by ``rules`` and ordered alphabetically.
    """
    parsed = parse_corpus(texts, rules, vocabulary=vocabulary)
    return tdm_from_parsed(parsed, doc_ids=doc_ids)


def tdm_from_parsed(
    parsed: ParsedCorpus, *, doc_ids: Sequence[str] | None = None
) -> TermDocumentMatrix:
    """Assemble the matrix from an already-parsed corpus."""
    vocab = parsed.vocabulary
    n = parsed.n_documents
    if doc_ids is None:
        doc_ids = [f"D{j + 1}" for j in range(n)]
    else:
        doc_ids = list(doc_ids)
        if len(doc_ids) != n:
            raise ShapeError(
                f"doc_ids has {len(doc_ids)} labels for {n} documents"
            )
    # One triple per token occurrence; from_triples sums the repeats.
    rows = [vocab.id_of(t) for doc in parsed.tokens for t in doc]
    cols = np.repeat(
        np.arange(n, dtype=np.int64),
        np.fromiter((len(doc) for doc in parsed.tokens), dtype=np.int64, count=n),
    )
    matrix = CSCMatrix.from_triples((len(vocab), n), rows, cols, np.ones(len(rows)))
    return TermDocumentMatrix(matrix, vocab, doc_ids)


def count_vector(tokens: Sequence[str], vocabulary: Vocabulary) -> np.ndarray:
    """Dense term-frequency vector of one document/query (length m).

    Tokens absent from the vocabulary are silently dropped — exactly how
    the paper handles query words that are not indexed terms ("they are
    omitted from the query").
    """
    v = np.zeros(len(vocabulary), dtype=np.float64)
    for t in tokens:
        idx = vocabulary.get(t)
        if idx is not None:
            v[idx] += 1.0
    return v
