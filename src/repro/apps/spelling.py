"""LSI spelling correction (§5.4, Kukich).

"Kukich used LSI for a related problem, spelling correction.  In this
application, the rows were unigrams and bigrams and the columns were
correctly spelled words.  An input word (correctly or incorrectly
spelled) was broken down into its bigrams and trigrams, the query vector
was located at the weighted vector sum of these elements, and the nearest
word in LSI space was returned as the suggested correct spelling."

The corrector builds an n-gram × lexicon matrix, decomposes it, and
answers queries through the standard Eq. 6 projection — the *identical*
machinery as document retrieval with n-grams as "terms" and words as
"documents", which is the paper's point about descriptor-object matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.core.similarity import rank_documents
from repro.errors import ShapeError
from repro.linalg.svd import truncated_svd
from repro.sparse.csc import CSCMatrix
from repro.text.ngrams import char_ngrams, vocabulary_ngrams
from repro.text.vocabulary import Vocabulary
from repro.weighting.schemes import WeightingScheme, apply_weighting

__all__ = ["SpellingCorrector"]


class SpellingCorrector:
    """n-gram × word LSI model with a nearest-word query interface."""

    def __init__(
        self,
        lexicon: Sequence[str],
        *,
        k: int | None = None,
        ngram_sizes: Sequence[int] = (1, 2),
        scheme: WeightingScheme | str | None = None,
        seed=0,
    ):
        lexicon = [w.lower() for w in lexicon]
        if len(set(lexicon)) != len(lexicon):
            raise ShapeError("lexicon contains duplicate words")
        if len(lexicon) < 2:
            raise ShapeError("lexicon needs at least two words")
        self.lexicon = list(lexicon)
        self.ngram_sizes = tuple(ngram_sizes)
        grams = vocabulary_ngrams(lexicon, self.ngram_sizes)
        gram_vocab = Vocabulary(grams).freeze()
        rows, cols = [], []
        for j, word in enumerate(lexicon):
            for g in char_ngrams(word, self.ngram_sizes):
                rows.append(gram_vocab.id_of(g))
                cols.append(j)
        counts = CSCMatrix.from_triples(
            (len(grams), len(lexicon)), rows, cols, np.ones(len(rows))
        )
        if isinstance(scheme, str):
            scheme = WeightingScheme.from_name(scheme)
        scheme = scheme or WeightingScheme("raw", "entropy")
        weighted = apply_weighting(counts, scheme)
        dim = min(len(grams), len(lexicon))
        if k is None:
            k = max(2, dim * 2 // 3)
        k = min(k, dim)  # small lexica cap the usable rank
        svd = truncated_svd(weighted.matrix, k, seed=seed)
        self.model = LSIModel(
            U=svd.U,
            s=svd.s,
            V=svd.V,
            vocabulary=gram_vocab,
            doc_ids=list(lexicon),
            scheme=scheme,
            global_weights=weighted.global_weights,
            provenance="svd",
        )

    # ------------------------------------------------------------------ #
    def _query_vector(self, word: str) -> np.ndarray:
        # The word's n-grams are its "terms": Eq. 6 over the gram ids.
        return project_query(self.model, char_ngrams(word, self.ngram_sizes))

    def suggest(self, word: str, *, top: int = 5) -> list[tuple[str, float]]:
        """Ranked corrections: the nearest lexicon words in LSI space."""
        qhat = self._query_vector(word)
        if not np.any(qhat):
            return []
        return rank_documents(self.model, qhat)[:top]

    def correct(self, word: str) -> str:
        """Single best correction (the input itself if already nearest)."""
        suggestions = self.suggest(word, top=1)
        return suggestions[0][0] if suggestions else word

    def accuracy(self, pairs: Sequence[tuple[str, str]]) -> float:
        """Top-1 accuracy over ``(misspelling, truth)`` pairs."""
        if not pairs:
            return 0.0
        return sum(
            1 for wrong, truth in pairs if self.correct(wrong) == truth.lower()
        ) / len(pairs)
