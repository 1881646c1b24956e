"""§5.2 ablation — automatic selection of the number of factors.

Regenerates the design-choice study DESIGN.md calls out: do the cheap
spectrum-based selectors (energy fraction, spectral gap) land in the
performance-peak region the §5.2 sweep identifies?  Times the sweep
selector (the expensive reference).
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi
from repro.core.kselect import (
    choose_k_by_energy,
    choose_k_by_gap,
    choose_k_by_sweep,
)
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.evaluation.metrics import three_point_average_precision
from repro.retrieval.engine import LSIRetrieval


def test_k_selectors_vs_performance_peak(benchmark):
    col = topic_collection(
        SyntheticSpec(
            n_topics=8, docs_per_topic=15, doc_length=40,
            concepts_per_topic=12, synonyms_per_concept=4,
            queries_per_topic=2, query_length=2, query_synonym_shift=0.9,
            polysemy=0.3, background_vocab=40, background_rate=0.3,
        ),
        seed=23,
    )
    kmax = 48
    model = fit_lsi(
        col.documents, k=kmax, scheme="log_entropy", seed=0, method="dense"
    )

    def metric(m):
        eng = LSIRetrieval(m)
        vals = []
        for qi, q in enumerate(col.queries):
            ranked = [j for j, _ in eng.search(q)]
            vals.append(
                three_point_average_precision(ranked, col.relevant(qi))
            )
        return float(np.mean(vals))

    sweep = benchmark(
        choose_k_by_sweep, model, metric,
        candidates=[1, 2, 4, 8, 12, 16, 24, 32, 48],
    )
    energy = choose_k_by_energy(model.s, target=0.7)
    gap = choose_k_by_gap(model.s, min_k=2)

    def metric_at(k):
        return metric(model.truncated(k))

    rows = [
        f"{'selector':<22s}{'chosen k':>9s}{'metric at k':>12s}",
        f"{'sweep (reference)':<22s}{sweep.k:>9d}{metric_at(sweep.k):>12.3f}",
        f"{'energy (70%)':<22s}{energy.k:>9d}{metric_at(energy.k):>12.3f}",
        f"{'spectral gap':<22s}{gap.k:>9d}{metric_at(gap.k):>12.3f}",
        "paper: performance peaks at intermediate k and decays slowly",
    ]
    emit("§5.2 — k-selection heuristics vs the sweep peak", rows)

    best = metric_at(sweep.k)
    # Cheap selectors must land within 15% of the sweep optimum and
    # strictly beat the degenerate extremes.
    for sel in (energy, gap):
        assert metric_at(sel.k) > 0.85 * best
        assert metric_at(sel.k) > metric_at(1)
