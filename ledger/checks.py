"""Output checks and failure accounting.

Every reply is checked for shape (status 200, not ``partial``, the
right ``n_documents``, the asked-for number of results, scores in
descending order).  The first ``REFERENCE_SAMPLE`` requests of each
window are also compared with an in-process reference computed **one query at a time** on the
same checkpoint: indices identical, scores within 1e-12.  A server may
score two queued requests as one two-row GEMM where the reference runs
a GEMV, and those differ by an ulp, so bits are never compared across
kernel paths.

A request that fails any check counts as failed, and a failed request
has no latency: it is left out of every timing and counted against the
number attempted.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field

from repro.server.state import EpochSnapshot
from repro.serving.topk import ranked_pairs
from repro.store.durable import DurableIndexStore
from repro.store.mmap_io import open_latest_ann, open_latest_model

from ledger.servers import server_env

SCORE_TOLERANCE = 1e-12

#: Replies compared with the reference per window.  The reference scan
#: costs what serving the request cost, and it runs once the last window
#: has closed, inside the run's time budget.
REFERENCE_SAMPLE = 192


@dataclass
class Tally:
    """Requests attempted / failed in one phase, with the reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            **({"reasons": dict(self.reasons)} if self.reasons else {}),
        }


class Reference:
    """The newest checkpoint of a store, scored in this process."""

    def __init__(self, data_dir: pathlib.Path):
        model = open_latest_model(data_dir, mmap=True)
        self.snapshot = EpochSnapshot(
            0, model, query_cache_size=1, ann=open_latest_ann(data_dir, mmap=True)
        )

    @property
    def n_documents(self) -> int:
        return self.snapshot.n_documents

    def exact(self, tokens: list[str], top: int) -> list[tuple[int, float]]:
        qhat = self.snapshot.project(tokens)
        return ranked_pairs(self.snapshot.score_batch(qhat)[0], top=top)

    def ann(self, tokens: list[str], probes: int, top: int) -> list[tuple[int, float]]:
        qhat = self.snapshot.project(tokens)
        return self.snapshot.search_ann(qhat, probes=probes, top=top)[0]


def shape_problem(status: int, body: bytes, *, n_documents: int | None, top: int):
    """``(reply, None)`` for a well-formed reply, else ``(None, reason)``."""
    if status != 200:
        return None, f"status_{status}"
    try:
        reply = json.loads(body)
        results = reply["results"]
    except (ValueError, KeyError, TypeError):
        return None, "malformed_reply"
    if reply.get("partial"):
        return None, "partial"
    if n_documents is not None and reply.get("n_documents") != n_documents:
        return None, "wrong_n_documents"
    if len(results) != top:
        return None, "wrong_result_count"
    scores = [row[1] for row in results]
    if any(b > a for a, b in zip(scores, scores[1:])):
        return None, "unsorted"
    return reply, None


def reference_problem(reply: dict, want: list[tuple[int, float]]) -> str | None:
    got = [(row[0], row[1]) for row in reply["results"]]
    if [j for j, _ in got] != [j for j, _ in want]:
        return "index_mismatch"
    if any(abs(a - b) > SCORE_TOLERANCE for (_, a), (_, b) in zip(got, want)):
        return "score_mismatch"
    return None


def recall_at(reply: dict, exact: list[tuple[int, float]], k: int = 10) -> float:
    want = {j for j, _ in exact[:k]}
    got = {row[0] for row in reply["results"][:k]}
    return len(want & got) / len(want)


def check_searches(
    samples,
    queries: list[list[str]],
    reference: Reference,
    *,
    top: int,
    probes: int | None,
    tally: Tally,
) -> tuple[list, list[float], list[float]]:
    """Check one phase's search replies.

    Returns the samples that passed, the recall@10 of each reply that was
    compared with the reference, and each such reply's candidate fraction
    (1.0 for an exact scan).
    """
    good = []
    recalls: list[float] = []
    fractions: list[float] = []
    # The first requests of the stream, not the first to finish: which
    # replies are compared (and so recall) then depends on the seed alone.
    compare = {s.index for s in sorted(samples, key=lambda s: s.index)[:REFERENCE_SAMPLE]}
    for sample in samples:
        tally.attempted += 1
        reply, problem = shape_problem(
            sample.status, sample.body, n_documents=reference.n_documents, top=top
        )
        if problem is None and sample.index in compare:
            tokens = queries[sample.index % len(queries)]
            exact = reference.exact(tokens, top)
            want = exact if probes is None else reference.ann(tokens, probes, top)
            problem = reference_problem(reply, want)
            recalls.append(recall_at(reply, exact))
            scanned = reply.get("ann", {}).get("candidates")
            fractions.append(
                1.0 if scanned is None else scanned / reference.n_documents
            )
        if problem is None:
            good.append(sample)
        else:
            tally.fail(problem)
    return good, recalls, fractions


def check_store_after_ingest(data_dir: pathlib.Path, expected_docs: int) -> list[str]:
    """Every acknowledged write must be readable after the restart.

    ``repro store verify`` must exit 0 and the reopened store must hold
    ``expected_docs`` documents.  Returns the problems found.
    """
    problems = []
    verify = subprocess.run(
        [sys.executable, "-m", "repro", "--no-obs", "store", "verify", str(data_dir)],
        env=server_env(), capture_output=True, text=True, timeout=120,
    )
    if verify.returncode != 0:
        problems.append(f"store verify exited {verify.returncode}: {verify.stdout[-300:]}")
    store = DurableIndexStore.open(data_dir)
    try:
        if store.manager.n_documents != expected_docs:
            problems.append(
                f"reopened store holds {store.manager.n_documents} documents, "
                f"{expected_docs} were acknowledged"
            )
    finally:
        store.close(flush=False)
    return problems
