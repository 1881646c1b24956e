"""§5.1 (Term Weighting) — weighting-scheme ablation.

Regenerates: "A log transformation of the local cell entries combined
with a global entropy weight for terms is the most effective
term-weighting scheme ... log × entropy weighting was 40% more effective
than raw term weighting" — the local × global grid evaluated on
collections with bursty high-frequency noise (the property of natural
text that makes raw counts misleading), with the raw×none baseline
highlighted.  Times the log×entropy run.
"""

import numpy as np

from conftest import emit
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.evaluation.harness import (
    evaluate_run,
    percent_improvement,
    run_engine,
)
from repro.retrieval.engine import LSIRetrieval
from repro.weighting.schemes import WeightingScheme


def _collection(seed):
    return topic_collection(
        SyntheticSpec(
            n_topics=8, docs_per_topic=18, doc_length=60,
            concepts_per_topic=14, synonyms_per_concept=4,
            queries_per_topic=2, query_length=1,
            query_synonym_shift=1.0, polysemy=0.35,
            background_vocab=8, background_rate=0.3, noise_burst=10,
        ),
        seed=seed,
    )


def _score(scheme: WeightingScheme, collections) -> float:
    vals = []
    for col in collections:
        eng = LSIRetrieval.from_texts(
            col.documents, k=16, scheme=scheme, seed=0
        )
        vals.append(
            evaluate_run(run_engine(eng, col), col)["mean_metric"]
        )
    return float(np.mean(vals))


def test_weighting_scheme_grid(benchmark):
    collections = [_collection(seed) for seed in (3, 11)]
    grid = [
        WeightingScheme(loc, glob)
        for loc in ("raw", "binary", "log", "sqrt")
        for glob in ("none", "idf", "entropy", "normal")
    ]
    scores = {}
    for scheme in grid:
        if scheme.name == "log×entropy":
            scores[scheme.name] = benchmark(_score, scheme, collections)
        else:
            scores[scheme.name] = _score(scheme, collections)

    raw = scores["raw×none"]
    ranked = sorted(scores.items(), key=lambda kv: -kv[1])
    rows = [f"{'scheme':<18s}{'3-pt avg prec':>14s}{'vs raw':>9s}"]
    for name, val in ranked:
        rows.append(
            f"{name:<18s}{val:>14.3f}{percent_improvement(val, raw):>+8.1f}%"
        )
    rows.append("paper: log×entropy ≈ +40% over raw term weighting, "
                "averaged over five collections")
    emit("§5.1 — term-weighting ablation (averaged over 2 collections)", rows)

    # Shape claims: log×entropy gains substantially over raw (the paper's
    # ~40% band: measured +44% here); raw×none is the worst scheme
    # (bursty frequency noise dominates it); log×entropy is within 10% of
    # the grid's best.  (On our synthetic counts the normalization-family
    # schemes edge slightly ahead of log×entropy — the paper compared a
    # smaller grid on natural text; the raw-vs-damped contrast is the
    # reproduced result.)
    gain = percent_improvement(scores["log×entropy"], raw)
    assert gain > 25.0
    names_ranked = [name for name, _ in ranked]
    assert names_ranked[-1] == "raw×none"
    best = ranked[0][1]
    assert scores["log×entropy"] > 0.9 * best
