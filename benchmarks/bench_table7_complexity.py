"""Table 7 — computational complexity of the updating methods.

Regenerates: the flop-model table (folding-in documents/terms, the three
SVD-updating phases priced by one formula, recomputing) over a parameter sweep, validates the
model's crossover structure against *measured* wall-clock on synthetic
matrices, and checks the Lanczos cost model ``I·cost(GᵀGx)+trp·cost(Gx)``
against measured matvec counts.
"""

import time

import numpy as np

from conftest import SMOKE, emit
from repro.core.build import fit_lsi_from_tdm
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm
from repro.updating.cost_model import (
    fold_documents_flops,
    fold_terms_flops,
    recompute_flops,
    svd_update_flops,
)
from repro.updating.folding import fold_in_documents
from repro.updating.recompute import recompute_with_documents
from repro.updating.svd_update import update_documents


#: Median of this many timings per measured row.
REPEATS = 5
#: Largest allowed ratio of seconds per model flop between the measured
#: rows.  What keeps it above 1 is mostly the recompute: the model's
#: Lanczos term counts the sparse products, not the full
#: reorthogonalization against the growing basis (ROADMAP item 1(d)).
NS_PER_FLOP_SPREAD = 40.0


def _workload():
    col = topic_collection(
        SyntheticSpec(n_topics=6, docs_per_topic=40, doc_length=60,
                      concepts_per_topic=20, queries_per_topic=0),
        seed=3,
    )
    tdm = build_tdm(col.documents, ParsingRules())
    return tdm


def test_table7_flop_model_and_measured_times(benchmark):
    tdm = _workload()
    m, n = tdm.shape
    k, p = 20, 8
    model = fit_lsi_from_tdm(tdm, k)
    new_docs = np.zeros((m, p))
    rng = np.random.default_rng(0)
    for j in range(p):
        new_docs[rng.choice(m, 30, replace=False), j] = 1.0
    ids = [f"NEW{j}" for j in range(p)]

    # --- flop model table -------------------------------------------- #
    nnz_d = int(np.count_nonzero(new_docs))
    nnz_a = tdm.matrix.nnz
    flops = {
        "folding-in documents (2mkp)": fold_documents_flops(m, k, p),
        "folding-in terms (2nkq)": fold_terms_flops(n, k, p),
        # One formula, the printed core of each phase (cost_model):
        # p documents, p terms, and a j = p correction whose selection
        # Y_j holds p nonzeros.
        "SVD-updating documents": svd_update_flops(m, n + p, k, 0, p, nnz_d),
        "SVD-updating terms": svd_update_flops(m + p, n, k, p, 0, nnz_d),
        "SVD-updating correction": svd_update_flops(m, n, k, 0, 0, p + nnz_d),
        "recomputing the SVD": recompute_flops(nnz_a + nnz_d, k),
    }

    # --- measured wall-clock ------------------------------------------ #
    def timed(fn):
        runs = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - t0)
        return float(np.median(runs))

    measured = {
        "folding-in documents (2mkp)": timed(
            lambda: fold_in_documents(model, new_docs, ids)
        ),
        "SVD-updating documents": timed(
            lambda: update_documents(model, new_docs, ids)
        ),
        "recomputing the SVD": timed(
            lambda: recompute_with_documents(tdm, new_docs, ids, k)
        ),
    }

    benchmark(fold_in_documents, model, new_docs, ids)

    ns_per_flop = {name: 1e9 * t / flops[name] for name, t in measured.items()}
    rows = [f"m={m} n={n} k={k} p={p} nnz(A)={nnz_a} nnz(D)={nnz_d}",
            f"{'method':<32s}{'model flops':>14s}{'measured ms':>13s}{'ns/flop':>9s}"]
    for name, fl in flops.items():
        t = measured.get(name)
        rows.append(
            f"{name:<32s}{fl:>14,d}{1e3 * t:>13.3f}{ns_per_flop[name]:>9.2f}"
            if t is not None
            else f"{name:<32s}{fl:>14,d}{'—':>13s}{'—':>9s}"
        )
    emit("Table 7 — updating-method complexity (model + measured)", rows)

    # Shape claims: folding is the cheapest by model AND by measurement;
    # the model's fold ≪ update ordering matches the measured ordering.
    assert flops["folding-in documents (2mkp)"] < flops["SVD-updating documents"]
    if not SMOKE:  # a smoke run holds no clock
        assert measured["folding-in documents (2mkp)"] < measured["SVD-updating documents"]
        assert measured["folding-in documents (2mkp)"] < measured["recomputing the SVD"]
        # The model prices every method on one scale: seconds per model
        # flop may differ by at most NS_PER_FLOP_SPREAD across the rows.
        spread = max(ns_per_flop.values()) / min(ns_per_flop.values())
        assert spread <= NS_PER_FLOP_SPREAD, (
            f"seconds per model flop spread {spread:.1f}x across methods "
            f"({ns_per_flop}), allowed {NS_PER_FLOP_SPREAD}x"
        )


def test_lanczos_cost_model_matches_measured_counts(benchmark):
    """The §4.2 cost expression: I gram products + trp extractions."""
    from repro.linalg.counters import OperatorCounter
    from repro.linalg.lanczos import lanczos_svd

    tdm = _workload()
    counter = OperatorCounter(tdm.matrix)
    k = 12

    def run():
        counter.reset()
        return lanczos_svd(counter, k, seed=1)

    U, s, V, stats = benchmark(run)
    nonzero = int(np.sum(s > 0))
    rows = [
        f"I (iterations) = {stats.iterations}",
        f"trp (accepted triplets) = {nonzero}",
        f"measured GᵀGx products = {counter.gram_products}",
        f"measured total matvecs = {counter.matvecs + counter.rmatvecs}",
        f"model total = 2·I + trp = {2 * stats.iterations + nonzero}",
        f"flops (2·nnz per matvec) = {counter.flops.total:,d}",
    ]
    emit("Sparse-SVD cost model: I·cost(GᵀGx) + trp·cost(Gx)", rows)
    assert counter.gram_products == stats.iterations
    assert counter.matvecs + counter.rmatvecs == 2 * stats.iterations + nonzero
