"""§5.6 — near-neighbour search: cluster-pruned vs exhaustive scoring.

Regenerates the accuracy/cost dial behind "efficiently comparing queries
to documents (finding near neighbors in high-dimension spaces)":
recall@10 and fraction-of-collection-scored as the probe count grows,
against exhaustive cosine scoring.  Times the 2-probe search.
"""

import numpy as np

from conftest import emit
from repro.core.model import LSIModel
from repro.core.similarity import cosine_similarities
from repro.serving.ann import CoarseQuantizer
from repro.serving.snapshot import EpochSnapshot
from repro.text.vocabulary import Vocabulary
from repro.util.rng import ensure_rng


def _model(n=20_000, k=32, hubs=24, seed=4):
    rng = ensure_rng(seed)
    H = rng.standard_normal((hubs, k))
    V = H[rng.integers(hubs, size=n)] + 0.2 * rng.standard_normal((n, k))
    s = np.sort(rng.random(k) + 0.5)[::-1]
    return LSIModel(
        U=np.eye(k), s=s, V=V,
        vocabulary=Vocabulary([f"t{i}" for i in range(k)]).freeze(),
        doc_ids=[f"d{j}" for j in range(n)],
    )


def test_ann_recall_cost_curve(benchmark):
    model = _model()
    index = EpochSnapshot(
        0, model, ann=CoarseQuantizer.train(model.V, model.s, seed=0)
    )
    n_clusters = index.ann.n_clusters
    rng = ensure_rng(7)
    queries = rng.standard_normal((25, model.k))

    def search(q, probes):
        results, stats = index.search(index.scale(q), top=10, probes=probes)
        return results[0], stats[0]["candidates"]

    def probe2():
        return search(queries[0], 2)

    benchmark(probe2)

    rows = [
        f"n={model.n_documents} documents, {n_clusters} clusters",
        f"{'probes':>7s}{'recall@10':>11s}{'scored frac':>13s}",
    ]
    curve = {}
    for probes in (1, 2, 4, 8):
        recalls, fracs = [], []
        for q in queries:
            exact = {j for j, _ in index.search(index.scale(q), top=10)[0][0]}
            approx, scored = search(q, probes)
            recalls.append(len({j for j, _ in approx} & exact) / 10)
            fracs.append(scored / model.n_documents)
        curve[probes] = (float(np.mean(recalls)), float(np.mean(fracs)))
        rows.append(
            f"{probes:>7d}{curve[probes][0]:>11.3f}{curve[probes][1]:>13.3f}"
        )
    rows.append("exhaustive scoring = recall 1.0 at fraction 1.0")
    emit("§5.6 — cluster-pruned near-neighbour search", rows)

    # Shape claims: recall rises with probes; even 8 probes scan a small
    # fraction; 4+ probes reach high recall on hub-structured data.
    recalls = [curve[p][0] for p in (1, 2, 4, 8)]
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))
    assert curve[8][1] < 0.25
    assert curve[4][0] > 0.8

    # Sanity: full probing equals exact search.
    q = queries[0]
    exact_top = np.argsort(-cosine_similarities(model, q), kind="stable")[:10]
    full, _ = search(q, n_clusters)
    assert [j for j, _ in full] == exact_top.tolist()
