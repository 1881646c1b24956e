"""Term-side retrieval: automatic thesauri and index-term suggestion.

"Similarly, the objects returned to the user are typically documents, but
there is no reason that similar terms could not be returned.  Returning
nearby terms is useful for some applications like online thesauri (that
are automatically constructed by LSI), or for suggesting index terms for
documents."  (§5.4)

Execution
---------
Both rank rows of the model's term memo
(:func:`~repro.serving.index.scaled_terms`, derived once) by the one
exact ranking (:func:`~repro.serving.scan.ranked_scan`); a thesaurus
scans its terms :data:`~repro.serving.kernel.SCAN_WIDTH` to a flush.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.core.similarity import nearest_rows
from repro.serving.index import scaled_terms
from repro.serving.scan import ranked_scan

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
    vocab = model.vocabulary
    names = list(terms) if terms is not None else vocab.to_list()
    ranked = nearest_rows(
        scaled_terms(model), [vocab.id_of(t) for t in names], top=top
    )
    return {
        t: [(vocab[j], c) for j, c in pairs if c >= min_similarity]
        for t, pairs in zip(names, ranked)
    }


def suggest_index_terms(
    model: LSIModel, text: str, *, top: int = 10
) -> list[tuple[str, float]]:
    """Suggest vocabulary terms for a document — including terms the text
    never uses (the LSI advantage over extraction-based indexing).

    The document is projected to k-space (Eq. 7) and the nearest *term*
    vectors are returned.
    """
    dhat = project_query(model, text)
    (ranked,) = ranked_scan(
        scaled_terms(model), (dhat * model.s)[None, :], [top], [None]
    )
    return [(model.vocabulary[i], c) for i, c in ranked]
