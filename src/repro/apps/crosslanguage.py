"""Cross-language retrieval (§5.4, Landauer & Littman).

Method, as the paper describes it:

1. "The original term-document matrix is formed using a collection of
   abstracts that have versions in more than one language ... Each
   abstract is treated as the combination of its French-English versions."
2. "The truncated SVD is computed for this term by combined-abstract
   matrix.  The resulting space consists of combined-language abstracts,
   English words and French words."
3. "After this analysis, monolingual abstracts can be folded-in ... a
   French abstract will simply be located at the vector sum of its
   constituent words."
4. Queries in either language match documents in any language — "there is
   no difficult translation involved".

Evaluation follows the original study's *mate retrieval*: fold in the
English and French versions of held-out documents, query with one
language's version, and check that its other-language mate ranks first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.build import fit_lsi
from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.corpus.crosslang import CrossLanguageCorpus
from repro.errors import ShapeError
from repro.serving.kernel import cosine_scores
from repro.updating.folding import fold_in_texts
from repro.weighting.schemes import WeightingScheme

__all__ = ["CrossLanguageRetrieval", "mate_retrieval_accuracy"]


@dataclass
class CrossLanguageRetrieval:
    """A multilingual LSI space with folded-in monolingual documents.

    Attributes
    ----------
    model:
        The space after folding; the first ``n_training`` document vectors
        are the combined abstracts, the rest the folded monolingual docs.
    n_training:
        Number of combined training documents.
    languages:
        Language tag of each folded document ("en"/"fr"), parallel to the
        folded part of the model's doc list.
    """

    model: LSIModel
    n_training: int
    languages: list[str]

    @classmethod
    def train(
        cls,
        corpus: CrossLanguageCorpus,
        k: int,
        *,
        scheme: WeightingScheme | str | None = "log_entropy",
        seed=0,
    ) -> "CrossLanguageRetrieval":
        """Fit on combined abstracts, then fold both monolingual sets in."""
        base = fit_lsi(
            corpus.combined,
            k,
            scheme=scheme,
            doc_ids=[f"pair{i}" for i in range(len(corpus.combined))],
            seed=seed,
        )
        n_train = base.n_documents
        folded = fold_in_texts(
            base,
            list(corpus.english) + list(corpus.french),
            doc_ids=[f"en{i}" for i in range(len(corpus.english))]
            + [f"fr{i}" for i in range(len(corpus.french))],
        )
        langs = ["en"] * len(corpus.english) + ["fr"] * len(corpus.french)
        return cls(model=folded, n_training=n_train, languages=langs)

    # ------------------------------------------------------------------ #
    def _folded_coords(self) -> np.ndarray:
        return (self.model.V * self.model.s)[self.n_training :]

    def search(
        self,
        query: str,
        *,
        language: str | None = None,
        top: int = 10,
    ) -> list[tuple[str, float]]:
        """Rank folded monolingual documents for a query in any language.

        ``language`` restricts results to one language's documents (mate
        retrieval restricts to the *other* language).
        """
        qhat = project_query(self.model, query) * self.model.s
        ids = self.model.doc_ids[self.n_training :]
        cos = cosine_scores(self._folded_coords(), qhat)[0]
        if language is not None:
            cos[np.array(self.languages) != language] = -np.inf
        order = np.argsort(-cos, kind="stable")[:top]
        return [(ids[int(i)], float(cos[i])) for i in order]


def mate_retrieval_accuracy(
    retrieval: CrossLanguageRetrieval,
    queries: Sequence[str],
    mate_ids: Sequence[str],
    *,
    target_language: str,
) -> float:
    """Fraction of queries whose cross-language mate ranks first.

    ``queries[i]`` is a document text in one language; ``mate_ids[i]`` the
    id of its translation among the folded documents.
    """
    if len(queries) != len(mate_ids):
        raise ShapeError("queries and mate_ids must be parallel")
    hits = 0
    for q, mate in zip(queries, mate_ids):
        ranked = retrieval.search(q, language=target_language, top=1)
        if ranked and ranked[0][0] == mate:
            hits += 1
    return hits / len(queries) if queries else 0.0
