"""Test-collection container.

The paper evaluates retrieval the way the IR community does (§5.1): "These
collections consist of a set of documents, a set of user queries, and
relevance judgements."  :class:`TestCollection` is that triple, with
helpers for splitting (filtering experiments train a profile on one part
and stream the rest) and for corruption experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import EvaluationError

__all__ = ["TestCollection"]


@dataclass
class TestCollection:
    """Documents + queries + exhaustive relevance judgments.

    (The IR community's term of art — not a pytest test class; the
    ``__test__`` marker below keeps collectors away.)

    Attributes
    ----------
    documents:
        Raw document texts; index in this list is the document id used in
        the judgments.
    queries:
        Raw query texts.
    relevance:
        ``relevance[q]`` is the set of document indices relevant to query
        ``q``.  Judgments are exhaustive (every unlisted pair is judged
        non-relevant) as the paper's footnote 1 assumes for small
        collections.
    doc_ids, query_ids:
        Optional human-readable labels.
    name:
        Collection label used in benchmark output.
    """

    documents: list[str]
    queries: list[str]
    relevance: list[set[int]]
    doc_ids: list[str] = field(default_factory=list)
    query_ids: list[str] = field(default_factory=list)
    name: str = "collection"

    #: Tell pytest this is data, not a test case.
    __test__ = False

    def __post_init__(self):
        if len(self.relevance) != len(self.queries):
            raise EvaluationError(
                f"{len(self.relevance)} judgment sets for "
                f"{len(self.queries)} queries"
            )
        n = len(self.documents)
        for q, rel in enumerate(self.relevance):
            bad = [d for d in rel if not 0 <= d < n]
            if bad:
                raise EvaluationError(
                    f"query {q} judges nonexistent documents {bad}"
                )
        if not self.doc_ids:
            self.doc_ids = [f"D{j + 1}" for j in range(n)]
        if not self.query_ids:
            self.query_ids = [f"Q{j + 1}" for j in range(len(self.queries))]
        if len(self.doc_ids) != n or len(self.query_ids) != len(self.queries):
            raise EvaluationError("label lists do not match corpus sizes")

    # ------------------------------------------------------------------ #
    @property
    def n_documents(self) -> int:
        """Number of documents in the collection."""
        return len(self.documents)

    @property
    def n_queries(self) -> int:
        """Number of queries with judgments."""
        return len(self.queries)

    def relevant(self, query_idx: int) -> set[int]:
        """Relevant document indices for query ``query_idx``."""
        return self.relevance[query_idx]

    def split_documents(
        self, first: int
    ) -> tuple["TestCollection", list[str], list[set[int]]]:
        """Split into (collection over the first ``first`` docs, rest docs,
        per-query relevance of the rest re-indexed from 0).

        Used by the TREC-style sample-then-fold pipeline and the filtering
        experiments: fit the LSI space on the head, stream/fold the tail.
        """
        if not 0 < first <= self.n_documents:
            raise EvaluationError(
                f"split point {first} outside 1..{self.n_documents}"
            )
        head_rel = [
            {d for d in rel if d < first} for rel in self.relevance
        ]
        head = TestCollection(
            documents=self.documents[:first],
            queries=list(self.queries),
            relevance=head_rel,
            doc_ids=self.doc_ids[:first],
            query_ids=list(self.query_ids),
            name=f"{self.name}[:{first}]",
        )
        tail_docs = self.documents[first:]
        tail_rel = [
            {d - first for d in rel if d >= first} for rel in self.relevance
        ]
        return head, tail_docs, tail_rel

    def with_documents(
        self, documents: Sequence[str], *, name: str | None = None
    ) -> "TestCollection":
        """Same queries/judgments over replacement document texts.

        The OCR experiment corrupts document surfaces while relevance — a
        property of the underlying content — is unchanged.
        """
        documents = list(documents)
        if len(documents) != self.n_documents:
            raise EvaluationError(
                "replacement document list has different length"
            )
        return TestCollection(
            documents=documents,
            queries=list(self.queries),
            relevance=[set(r) for r in self.relevance],
            doc_ids=list(self.doc_ids),
            query_ids=list(self.query_ids),
            name=name or f"{self.name}-replaced",
        )
