"""Matching people instead of documents (§5.4).

Two applications from the paper:

* **Bellcore Advisor** — "a system was developed to find local experts
  relevant to user's queries.  A query was matched to the nearest
  documents and project descriptions and the author's organization was
  returned" — :func:`find_experts`.
* **Reviewer assignment** — "LSI was used to automate the assignment of
  reviewers to submitted conference papers ... These LSI similarities
  along with additional constraints to insure that each paper was
  reviewed p times and that each reviewer received no more than r papers
  to review" — :func:`assign_reviewers`.

Reviewers are represented by texts they have written (their documents'
centroid in k-space); submissions are folded in as pseudo-documents.  The
constrained assignment maximizes total similarity greedily with a repair
pass — the paper's scale ("several hundred reviewers ... took less than
1 hour" in 1992) needs nothing fancier, and the greedy objective gap is
measured in the bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import ShapeError
from repro.serving.kernel import cosine_scores
from repro.serving.topk import ranked_pairs

__all__ = ["ReviewerAssignment", "assign_reviewers", "find_experts", "people_vectors"]


def people_vectors(
    model: LSIModel, authored_docs: Sequence[Sequence[int]]
) -> np.ndarray:
    """k-space vector per person: centroid of their documents' vectors.

    ``authored_docs[i]`` lists the model document indices person ``i``
    wrote.
    """
    out = np.zeros((len(authored_docs), model.k))
    for i, docs in enumerate(authored_docs):
        idx = np.asarray(list(docs), dtype=np.int64)
        if idx.size == 0:
            raise ShapeError(f"person {i} has no authored documents")
        if idx.min() < 0 or idx.max() >= model.n_documents:
            raise ShapeError(f"person {i} authored unknown documents")
        out[i] = (model.V[idx] * model.s).mean(axis=0)
    return out


def find_experts(
    model: LSIModel,
    people: np.ndarray,
    query: str,
    *,
    top: int = 5,
) -> list[tuple[int, float]]:
    """Rank people by cosine of their vector with the query (Advisor)."""
    cos = cosine_scores(people, project_query(model, query) * model.s)[0]
    return ranked_pairs(cos, top=top)


@dataclass
class ReviewerAssignment:
    """Result of the constrained paper-reviewer matching.

    Attributes
    ----------
    assignments:
        ``assignments[paper]`` — list of reviewer indices (length p each).
    similarity:
        The (papers × reviewers) cosine matrix used.
    total_similarity:
        Objective value of the produced assignment.
    """

    assignments: list[list[int]]
    similarity: np.ndarray
    total_similarity: float

    def reviewer_load(self, n_reviewers: int) -> np.ndarray:
        """Papers assigned to each reviewer (length ``n_reviewers``)."""
        load = np.zeros(n_reviewers, dtype=np.int64)
        for revs in self.assignments:
            for r in revs:
                load[r] += 1
        return load


def assign_reviewers(
    model: LSIModel,
    reviewer_vecs: np.ndarray,
    submissions: Sequence[str],
    *,
    reviews_per_paper: int = 3,
    max_papers_per_reviewer: int = 6,
) -> ReviewerAssignment:
    """Assign reviewers to submitted abstracts under the p/r constraints.

    Greedy by descending similarity with a feasibility repair pass; raises
    if the constraints are infeasible (``p·papers > r·reviewers``).
    """
    n_papers = len(submissions)
    n_reviewers = reviewer_vecs.shape[0]
    p, r = reviews_per_paper, max_papers_per_reviewer
    if p < 1 or r < 1:
        raise ShapeError("reviews_per_paper and max_papers_per_reviewer must be >= 1")
    if p > n_reviewers:
        raise ShapeError(f"cannot give {p} reviews with {n_reviewers} reviewers")
    if p * n_papers > r * n_reviewers:
        raise ShapeError(
            f"infeasible: {p}×{n_papers} reviews needed but capacity is "
            f"{r}×{n_reviewers}"
        )
    paper_vecs = np.stack(
        [project_query(model, s) * model.s for s in submissions]
    )
    sim = cosine_scores(reviewer_vecs, paper_vecs)

    # Greedy: highest-similarity (paper, reviewer) pairs first.
    order = np.argsort(-sim, axis=None, kind="stable")
    need = np.full(n_papers, p, dtype=np.int64)
    capacity = np.full(n_reviewers, r, dtype=np.int64)
    chosen: list[set[int]] = [set() for _ in range(n_papers)]
    for flat in order:
        i, j = divmod(int(flat), n_reviewers)
        if need[i] > 0 and capacity[j] > 0 and j not in chosen[i]:
            chosen[i].add(j)
            need[i] -= 1
            capacity[j] -= 1
        if not need.any():
            break

    # Repair: any still-unmet demand takes the best reviewers with spare
    # capacity (can only happen when r binds hard and greedy locally
    # exhausted a paper's good reviewers).
    for i in range(n_papers):
        while need[i] > 0:
            candidates = [
                j for j in range(n_reviewers)
                if capacity[j] > 0 and j not in chosen[i]
            ]
            if not candidates:
                raise ShapeError(
                    f"repair failed for paper {i}: no reviewer capacity left"
                )
            j = max(candidates, key=lambda jj: sim[i, jj])
            chosen[i].add(j)
            need[i] -= 1
            capacity[j] -= 1

    assignments = [sorted(c) for c in chosen]
    total = float(sum(sim[i, j] for i in range(n_papers) for j in assignments[i]))
    return ReviewerAssignment(assignments, sim, total)
