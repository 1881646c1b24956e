"""Deterministic fixtures: the serving store S, the text store T, queries.

Everything here is a function of ``(seed, sizes)``; the program under
test only ever sees what these builders generate.  Generating random
arrays and text is *not* part of any ``setup_s``; opening, fitting and
initializing stores is timed by the caller.
"""

from __future__ import annotations

import pathlib
import time
from dataclasses import dataclass

import numpy as np

from repro.core.model import LSIModel
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.obs.metrics import registry
from repro.server.state import manager_from_texts
from repro.sparse.csc import CSCMatrix
from repro.store.durable import DurableIndexStore
from repro.text.tdm import TermDocumentMatrix
from repro.text.vocabulary import Vocabulary
from repro.updating.manager import LSIIndexManager
from repro.weighting.schemes import WeightingScheme

QUERY_TERMS = 6
ADD_BATCH_DOCS = 8


@dataclass(frozen=True)
class Sizes:
    """How large one run's fixtures are."""

    name: str
    s_docs: int  # documents in S
    s_k: int
    s_terms: int
    s_hubs: int
    t_base: int  # documents T is fitted on
    t_k: int
    t_topics: int
    t_doc_len: int
    add_batches: int  # /add requests of ADD_BATCH_DOCS documents each

    @property
    def t_added(self) -> int:
        return self.add_batches * ADD_BATCH_DOCS

    @property
    def t_total(self) -> int:
        return self.t_base + self.t_added


#: ``bench`` is what every run uses (the issue sized S at 200 000
#: documents and T at 4 000; see the README for why not).  S is as large
#: as it can be and still scan at the same speed from one server process
#: to the next: the host's last-level cache is shared with other guests,
#: and interleaved servers on a 51 MB S (100 000 documents) read p50
#: 5.7 to 6.2 ms while those on this 26 MB one read 4.34 to 4.49 ms.
#: ``smoke`` is for the self-tests.  Both cross exactly one
#: 10 %-distortion consolidation while ingesting.
#: Documents are 40 tokens long: at 60 the update planner's two
#: estimates for that consolidation (SVD-update, recompute) were within
#: 15 % of each other and the choice, which moves the stall from 3 s to
#: 13 s, flipped with the seed; at 40 recomputing wins by 1.6x on every
#: seed.
SIZES = {
    "smoke": Sizes("smoke", 20_000, 64, 2_000, 64, 800, 32, 40, 40, 12),
    "bench": Sizes("bench", 50_000, 64, 2_000, 64, 2_000, 48, 40, 40, 32),
}

_S_SCHEME = WeightingScheme("tf", "none")


# --------------------------------------------------------------------- #
# S: the synthetic serving store
# --------------------------------------------------------------------- #
@dataclass
class ServingStore:
    """S on disk plus what building it cost."""

    path: pathlib.Path
    sizes: Sizes
    initialize_s: float  # DurableIndexStore.initialize, ANN training included
    ann_train_s: float  # the part of it the store's registry books to training


def _s_arrays(seed: int, sizes: Sizes):
    """Hub-structured factors: documents and terms cluster around hubs.

    Term ``i`` belongs to hub ``i % hubs`` and its row of ``U Σ⁻¹`` is
    that hub's direction plus noise, so a hub's terms project (Eq. 6)
    next to that hub's documents and the coarse quantizer has structure
    to find.  Document noise is as long as the hub direction itself, so
    one hub's documents spread over several cells.
    """
    rng = np.random.default_rng([seed, 1])
    n, k, m, hubs = sizes.s_docs, sizes.s_k, sizes.s_terms, sizes.s_hubs
    directions = rng.standard_normal((hubs, k))
    V = directions[rng.integers(hubs, size=n)] + rng.standard_normal((n, k))
    s = np.sort(rng.random(k) + 0.5)[::-1]
    term_hub = np.arange(m) % hubs
    U = (directions[term_hub] + 0.3 * rng.standard_normal((m, k))) * s
    return U, s, V


def build_serving_store(path: pathlib.Path, seed: int, sizes: Sizes) -> ServingStore:
    """Write S: n documents, k factors, ANN trained at initialize."""
    U, s, V = _s_arrays(seed, sizes)
    n, m = sizes.s_docs, sizes.s_terms
    vocabulary = Vocabulary(f"t{i}" for i in range(m))
    vocabulary.freeze()
    doc_ids = [f"D{j}" for j in range(n)]
    model = LSIModel(
        U=U, s=s, V=V, vocabulary=vocabulary, doc_ids=doc_ids,
        scheme=_S_SCHEME, global_weights=np.ones(m),
    )
    # The store wants the raw counts too; S serves reads only, so an
    # all-zero matrix of the right shape stands in for them.
    empty = CSCMatrix(
        (m, n), np.zeros(n + 1, dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0),
    )
    manager = LSIIndexManager.restore(
        tdm=TermDocumentMatrix(empty, vocabulary, doc_ids),
        k=sizes.s_k, model=model, base_model=model, scheme=_S_SCHEME,
    )
    trained = registry.histogram("store.ann_train_seconds")
    trained_before = trained.sum if trained is not None else 0.0
    t0 = time.perf_counter()
    store = DurableIndexStore.initialize(path, manager)
    initialize_s = time.perf_counter() - t0
    store.close()
    ann_train_s = registry.histogram("store.ann_train_seconds").sum - trained_before
    return ServingStore(path, sizes, initialize_s, ann_train_s)


def serving_queries(seed: int, sizes: Sizes, count: int) -> list[list[str]]:
    """``count`` distinct 6-term token lists: two terms from each of three hubs.

    Distinct as *sets*, so no two share a query-vector cache key.  A
    three-topic query has neighbours in more cells than eight probes
    reach, so ``recall_at_10`` under ANN is below 1 and can move.
    """
    rng = np.random.default_rng([seed, 2])
    per_hub = [
        np.arange(h, sizes.s_terms, sizes.s_hubs) for h in range(sizes.s_hubs)
    ]
    seen: set[tuple[int, ...]] = set()
    out: list[list[str]] = []
    while len(out) < count:
        hubs = rng.choice(sizes.s_hubs, size=QUERY_TERMS // 2, replace=False)
        pick = tuple(
            sorted(int(t) for h in hubs for t in rng.choice(per_hub[h], size=2, replace=False))
        )
        if pick not in seen:
            seen.add(pick)
            out.append([f"t{i}" for i in pick])
    return out


# --------------------------------------------------------------------- #
# T: the text store
# --------------------------------------------------------------------- #
@dataclass
class TextCorpus:
    """T's raw material: base texts to fit on, batches to ingest."""

    sizes: Sizes
    base: list[str]
    batches: list[list[str]]  # add_batches lists of ADD_BATCH_DOCS texts


def build_text_corpus(seed: int, sizes: Sizes) -> TextCorpus:
    per_topic = -(-sizes.t_total // sizes.t_topics)
    spec = SyntheticSpec(
        n_topics=sizes.t_topics, docs_per_topic=per_topic,
        doc_length=sizes.t_doc_len, shuffle_documents=True,
    )
    docs = topic_collection(spec, seed=seed).documents[: sizes.t_total]
    held = docs[sizes.t_base:]
    return TextCorpus(
        sizes,
        docs[: sizes.t_base],
        [held[i:i + ADD_BATCH_DOCS] for i in range(0, len(held), ADD_BATCH_DOCS)],
    )


def fit_text_manager(corpus: TextCorpus) -> LSIIndexManager:
    """Raw text → ``build_tdm`` → weighting → Lanczos fit (the build path)."""
    return manager_from_texts(
        corpus.base, k=corpus.sizes.t_k, ingest_method="fast-update"
    )


def build_text_store(path: pathlib.Path, corpus: TextCorpus) -> None:
    """Fit T on its base texts and seed a durable store at ``path``."""
    DurableIndexStore.initialize(path, fit_text_manager(corpus)).close()


def text_queries(seed: int, corpus: TextCorpus, count: int) -> list[list[str]]:
    """``count`` distinct 6-term token lists drawn from base documents."""
    rng = np.random.default_rng([seed, 3])
    seen: set[tuple[str, ...]] = set()
    out: list[list[str]] = []
    while len(out) < count:
        words = sorted(set(corpus.base[int(rng.integers(len(corpus.base)))].split()))
        if len(words) < QUERY_TERMS:
            continue
        pick = tuple(sorted(rng.choice(words, size=QUERY_TERMS, replace=False)))
        if pick not in seen:
            seen.add(pick)
            out.append(list(pick))
    return out
