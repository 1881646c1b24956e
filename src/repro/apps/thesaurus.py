"""Term-side retrieval: automatic thesauri and index-term suggestion.

"Similarly, the objects returned to the user are typically documents, but
there is no reason that similar terms could not be returned.  Returning
nearby terms is useful for some applications like online thesauri (that
are automatically constructed by LSI), or for suggesting index terms for
documents."  (§5.4)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.core.similarity import nearest_terms
from repro.serving.kernel import cosine_scores

__all__ = ["build_thesaurus", "suggest_index_terms"]


def build_thesaurus(
    model: LSIModel,
    *,
    top: int = 5,
    min_similarity: float = 0.0,
    terms: Sequence[str] | None = None,
) -> dict[str, list[tuple[str, float]]]:
    """Nearest-neighbour lists for every (or the given) vocabulary term.

    Returns ``{term: [(neighbour, cosine), ...]}`` with neighbours above
    ``min_similarity``, at most ``top`` each.
    """
    vocab = terms if terms is not None else model.vocabulary.to_list()
    out: dict[str, list[tuple[str, float]]] = {}
    for t in vocab:
        neigh = nearest_terms(model, t, top=top)
        out[t] = [(w, c) for w, c in neigh if c >= min_similarity]
    return out


def suggest_index_terms(
    model: LSIModel, text: str, *, top: int = 10
) -> list[tuple[str, float]]:
    """Suggest vocabulary terms for a document — including terms the text
    never uses (the LSI advantage over extraction-based indexing).

    The document is projected to k-space (Eq. 7) and the nearest *term*
    vectors are returned.
    """
    dhat = project_query(model, text)
    cos = cosine_scores(model.term_coordinates(), dhat * model.s)[0]
    order = np.argsort(-cos, kind="stable")[:top]
    return [(model.vocabulary[int(i)], float(cos[i])) for i in order]
