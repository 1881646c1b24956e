"""Fuzzy code search (§5.4): the NETLIB application.

"LSI has been incorporated as a fuzzy search option in NETLIB for
retrieving algorithms, code descriptions, and short articles."  The
searcher indexes routine descriptions with LSI, answers task-phrased
queries ("fit a regression line") with routines whose descriptions never
contain those words, and exposes the exact-name lookup that fuzzy search
replaced as the contrast baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.build import fit_lsi
from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.core.similarity import nearest_rows, ranked_documents
from repro.corpus.netlib_like import NetlibCatalogue
from repro.errors import ShapeError
from repro.serving.index import scaled_documents
from repro.weighting.schemes import WeightingScheme

__all__ = ["NetlibSearch"]


@dataclass
class NetlibSearch:
    """LSI-backed fuzzy search over a routine catalogue."""

    catalogue: NetlibCatalogue
    model: LSIModel

    @classmethod
    def build(
        cls,
        catalogue: NetlibCatalogue,
        *,
        k: int = 16,
        scheme: WeightingScheme | str | None = "log_entropy",
        seed=0,
    ) -> "NetlibSearch":
        """Index routine descriptions *and* digest articles together.

        The digests never come back as results, but they are what puts
        user wording ("regression", "fit") into the same latent factors
        as catalogue jargon ("least squares") and routine names — fuzzy
        search does not work without that bridge.
        """
        if not catalogue.descriptions:
            raise ShapeError("catalogue is empty")
        texts = list(catalogue.descriptions) + list(catalogue.digests)
        ids = list(catalogue.names) + [
            f"digest{i}" for i in range(len(catalogue.digests))
        ]
        model = fit_lsi(
            texts, min(k, len(texts)), scheme=scheme, doc_ids=ids, seed=seed
        )
        return cls(catalogue, model)

    # ------------------------------------------------------------------ #
    def fuzzy(self, query: str, *, top: int = 5) -> list[tuple[str, float]]:
        """Task-phrased fuzzy search: ranked routine names (digest
        articles are filtered from the results)."""
        qhat = project_query(self.model, query)
        # Rows [0, routines) are the routines, the digests follow them: the
        # top routines are among the top ``top + digests`` documents.
        routines = len(self.catalogue.names)
        ranked = ranked_documents(
            self.model, qhat, top=top + len(self.catalogue.digests)
        )
        ids = self.model.doc_ids
        return [(ids[j], c) for j, c in ranked if j < routines][:top]

    def exact(self, name: str) -> list[str]:
        """The pre-LSI behaviour: exact (substring) name lookup."""
        needle = name.lower()
        return [n for n in self.catalogue.names if needle in n.lower()]

    def more_like(self, name: str, *, top: int = 5) -> list[tuple[str, float]]:
        """Routines similar to a known one (query-by-example)."""
        (ranked,) = nearest_rows(
            scaled_documents(self.model), [self.model.doc_index(name)], top=top
        )
        return [(self.model.doc_ids[j], c) for j, c in ranked]
