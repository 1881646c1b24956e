"""The TOEFL synonym test (§5.4, Modeling Human Memory).

"They used the synonym test from ETS's Test Of English as a Foreign
Language (TOEFL).  The test consists of 80 multiple choice test items each
with a stem word and four alternatives ... they simply computed the
similarity of the stem word to each alternative and picked the closest
one as the synonym ...  Using this method LSI scored 64% correct, compared
with 33% correct for word-overlap methods, and 64% correct for the
average student taking the test."

Two solvers are provided: the LSI term-vector method and the word-overlap
baseline (alternatives scored by the number of documents in which they
co-occur with the stem — which is exactly what synonyms, by construction
and by nature, rarely do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import LSIModel
from repro.core.similarity import term_cosines
from repro.corpus.synonym_test import SynonymTest
from repro.text.tdm import TermDocumentMatrix

__all__ = ["SynonymTestResult", "run_synonym_test", "word_overlap_baseline"]


@dataclass(frozen=True)
class SynonymTestResult:
    """Score sheet of one solver on one item bank."""

    solver: str
    n_items: int
    n_correct: int
    choices: tuple[int, ...]  # chosen alternative per item

    @property
    def accuracy(self) -> float:
        """Fraction of items answered correctly."""
        return self.n_correct / self.n_items if self.n_items else 0.0

    def __str__(self) -> str:
        return (
            f"{self.solver}: {self.n_correct}/{self.n_items} "
            f"({100 * self.accuracy:.0f}% correct)"
        )


def run_synonym_test(model: LSIModel, test: SynonymTest) -> SynonymTestResult:
    """Answer each item by the nearest term vector (the paper's method)."""
    choices = []
    correct = 0
    for item in test.items:
        if item.stem not in model.vocabulary:
            # Stem never made it into the indexed corpus: the test-taker
            # has zero information; deterministically pick alternative 0.
            choices.append(0)
            correct += item.answer == 0
            continue
        ids = [model.vocabulary.get(alt) for alt in item.alternatives]
        # An alternative the model never indexed scores -inf (row 0
        # stands in for it).
        cos = term_cosines(model, item.stem, [i or 0 for i in ids])
        scores = np.where([i is None for i in ids], -np.inf, cos)
        pick = int(np.argmax(scores))
        choices.append(pick)
        if pick == item.answer:
            correct += 1
    return SynonymTestResult("lsi", len(test.items), correct, tuple(choices))


def word_overlap_baseline(
    tdm: TermDocumentMatrix, test: SynonymTest
) -> SynonymTestResult:
    """Answer each item by document co-occurrence counts.

    The stem and each alternative are compared by the number of documents
    containing both (ties broken toward the first alternative, matching a
    deterministic test-taker guessing on zero information).
    """
    dense = tdm.matrix.to_dense() > 0  # (m, n) incidence
    choices = []
    correct = 0
    for item in test.items:
        stem_idx = tdm.vocabulary.get(item.stem)
        stem_rows = (
            dense[stem_idx] if stem_idx is not None else np.zeros(dense.shape[1], bool)
        )
        scores = []
        for alt in item.alternatives:
            idx = tdm.vocabulary.get(alt)
            if idx is None:
                scores.append(-1)
                continue
            scores.append(int(np.sum(stem_rows & dense[idx])))
        pick = int(np.argmax(scores))
        choices.append(pick)
        if pick == item.answer:
            correct += 1
    return SynonymTestResult(
        "word-overlap", len(test.items), correct, tuple(choices)
    )
