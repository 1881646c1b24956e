"""The standard keyword vector method (SMART [25]) — the paper's baseline.

Documents and queries are vectors in *term* space (no dimension
reduction); similarity is the cosine between the weighted query vector
and each weighted document column.  "Results were obtained for LSI and
compared against published or computed results for other retrieval
techniques, notably the standard keyword vector method in SMART."

The same weighting machinery (Eq. 5) is shared with LSI so comparisons
isolate the effect of the truncated SVD, exactly as the paper's
evaluations do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.text.parser import ParsingRules
from repro.text.tdm import TermDocumentMatrix, build_tdm, count_vector
from repro.text.tokenizer import tokenize
from repro.weighting.schemes import (
    WeightingScheme,
    apply_weighting,
    weight_counts,
)

__all__ = ["KeywordRetrieval"]


class KeywordRetrieval:
    """Lexical vector-space engine over a weighted term-document matrix."""

    name = "keyword-vector"

    def __init__(
        self,
        tdm: TermDocumentMatrix,
        scheme: WeightingScheme | str | None = None,
    ):
        if isinstance(scheme, str):
            scheme = WeightingScheme.from_name(scheme)
        self.scheme = scheme or WeightingScheme()
        self.tdm = tdm
        weighted = apply_weighting(tdm.matrix, self.scheme)
        self.matrix = weighted.matrix  # CSC, weighted
        self.global_weights = weighted.global_weights
        # Column norms for cosine; zero-norm columns (documents with no
        # indexed terms) score 0 against everything.
        sq = np.zeros(tdm.n_documents)
        np.add.at(sq, self.matrix.expanded_cols(), self.matrix.data**2)
        self._col_norms = np.sqrt(sq)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        *,
        scheme: WeightingScheme | str | None = None,
        rules: ParsingRules | None = None,
        doc_ids: Sequence[str] | None = None,
    ) -> "KeywordRetrieval":
        """Build the engine straight from raw document texts."""
        return cls(build_tdm(texts, rules, doc_ids=doc_ids), scheme)

    @property
    def n_documents(self) -> int:
        """Documents in the indexed matrix."""
        return self.tdm.n_documents

    # ------------------------------------------------------------------ #
    def query_vector(self, query: str | Sequence[str]) -> np.ndarray:
        """Weighted query vector in term space (Eq. 5 applied to counts)."""
        tokens = tokenize(query) if isinstance(query, str) else list(query)
        counts = count_vector(tokens, self.tdm.vocabulary)
        return weight_counts(self.scheme, counts, self.global_weights)

    def scores(self, query: str | Sequence[str]) -> np.ndarray:
        """Cosine of the query against every document (length n)."""
        q = self.query_vector(query)
        qnorm = np.sqrt(np.dot(q, q))
        if qnorm == 0.0:
            return np.zeros(self.n_documents)
        raw = self.matrix.rmatvec(q)  # Aᵀ q
        denom = self._col_norms * qnorm
        out = np.zeros(self.n_documents)
        ok = denom > 0
        out[ok] = raw[ok] / denom[ok]
        return out

    def search(
        self,
        query: str | Sequence[str],
        *,
        top: int | None = None,
        threshold: float | None = None,
    ) -> list[tuple[int, float]]:
        """Ranked ``(doc_index, score)`` list, optionally filtered."""
        s = self.scores(query)
        order = np.argsort(-s, kind="stable")
        out = [(int(j), float(s[j])) for j in order]
        if threshold is not None:
            out = [(j, c) for j, c in out if c >= threshold]
        if top is not None:
            out = out[:top]
        return out

    def matching_documents(self, query: str | Sequence[str]) -> set[int]:
        """Documents sharing ≥1 indexed term with the query — the
        "lexical matching" set of §3.2 (boolean overlap, no ranking)."""
        tokens = tokenize(query) if isinstance(query, str) else list(query)
        counts = count_vector(tokens, self.tdm.vocabulary)
        term_ids = np.flatnonzero(counts > 0)
        if term_ids.size == 0:
            return set()
        hits: set[int] = set()
        csr = self.tdm.matrix.to_csr()
        for t in term_ids:
            cols, _ = csr.row_slice(int(t))
            hits.update(int(c) for c in cols)
        return hits
