"""Tests for the query-serving fast path (repro.serving).

The fast path's whole value proposition is "same answers, faster", so
most tests here compare against inline re-implementations of the seed
behaviour: full stable argsort + Python-level filtering, per-query
recomputation of ``V_k Σ_k`` and norms, and the pre-unification batch
scoring math.  The lifetime tests assert the rule that replaced the
invalidation contract: ``V_k Σ_k`` is derived once per model, shared by
every scorer of that model, freed with it, and untouched by whatever
supersedes the model.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.core.model import LSIModel
from repro.core.query import batch_project_queries, project_query
from repro.core.similarity import cosine_similarities, nearest_terms
from repro.obs.metrics import registry
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.retrieval.engine import LSIRetrieval
from repro.server.state import EpochSnapshot
from repro.serving.index import scaled_documents
from repro.serving.kernel import row_norms
from repro.serving.topk import ranked_pairs, topk_indices
from repro.text.vocabulary import Vocabulary
from repro.updating.fast_update import fast_update_documents
from repro.updating.folding import fold_in_documents
from repro.updating.manager import LSIIndexManager
from repro.updating.svd_update import update_documents
from tests.test_serving_scan import assert_ranking_matches, whole_model_search


def _random_model(rng, m=24, n=90, k=6) -> LSIModel:
    """A synthetic model without the cost of an SVD fit."""
    vocab = Vocabulary(f"t{i}" for i in range(m))
    vocab.freeze()
    return LSIModel(
        U=rng.standard_normal((m, k)),
        s=np.sort(rng.random(k) + 0.5)[::-1],
        V=rng.standard_normal((n, k)),
        vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(n)],
    )


def _flat_search(model, queries, top):
    """The unsharded path: one GEMM over every row, ranked per query."""
    snapshot = EpochSnapshot(0, model)
    Q = batch_project_queries(model, queries)
    return snapshot.search(snapshot.scale(Q), top=top)[0]


def _seed_ranked_pairs(s, top=None, threshold=None):
    """The seed LSIRetrieval.search ranking: full stable sort, then
    Python-level threshold and top filters over all n pairs."""
    order = np.argsort(-s, kind="stable")
    out = [(int(j), float(s[j])) for j in order]
    if threshold is not None:
        out = [(j, c) for j, c in out if c >= threshold]
    if top is not None:
        out = out[:top]
    return out


# --------------------------------------------------------------------- #
# argpartition top-k == stable argsort, including ties
# --------------------------------------------------------------------- #
def test_topk_identical_to_stable_argsort_under_ties():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        # Heavy quantization → many exact score ties, including at the
        # top-k boundary.
        s = rng.integers(0, 4, n) / 3.0
        full = np.argsort(-s, kind="stable")
        for top in (1, 2, 3, n // 2, n - 1, n, n + 5, None):
            if isinstance(top, int) and top < 1:
                continue
            got = topk_indices(s, top)
            want = full if top is None else full[:top]
            assert np.array_equal(got, want), (trial, top, s.tolist())


def test_topk_edge_cases():
    s = np.array([0.5, 0.5, 0.5])
    assert np.array_equal(topk_indices(s, 2), [0, 1])
    assert topk_indices(s, 0).size == 0
    assert topk_indices(np.empty(0), 3).size == 0
    # All-equal scores: stable order is index order.
    assert np.array_equal(topk_indices(np.zeros(5), None), np.arange(5))


def test_ranked_pairs_threshold_top_combinations():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(1, 50))
        s = rng.integers(-2, 3, n) / 2.0  # ties and negatives
        for top in (None, 1, 3, n):
            for threshold in (None, -0.5, 0.0, 0.25, 1.5):
                got = ranked_pairs(s, top=top, threshold=threshold)
                assert got == _seed_ranked_pairs(s, top, threshold)


def test_engine_search_matches_seed_path(small_collection, small_lsi):
    eng = LSIRetrieval(small_lsi)
    for q in small_collection.queries:
        s = eng.scores_for_vector(eng.query_vector(q))
        for kwargs in (
            {},
            {"top": 5},
            {"threshold": 0.2},
            {"top": 3, "threshold": 0.1},
            {"top": 1000},
        ):
            assert_ranking_matches(
                eng.search(q, **kwargs),
                _seed_ranked_pairs(
                    s, kwargs.get("top"), kwargs.get("threshold")
                ),
            )


def test_randomized_rankings_identical_to_seed(rng):
    """Acceptance property: fast-path rankings byte-identical to the
    seed path (recompute-per-query + full stable argsort) on random
    models and queries."""
    local = np.random.default_rng(77)
    for _ in range(20):
        model = _random_model(local)
        qhat = local.standard_normal(model.k)
        # Seed scoring: recompute coordinates and norms per query.
        docs = model.V * model.s
        target = qhat * model.s
        norms = np.sqrt(np.sum(docs * docs, axis=1))
        tnorm = np.sqrt(np.dot(target, target))
        denom = norms * tnorm
        seed_scores = np.zeros(model.n_documents)
        ok = denom > 0
        seed_scores[ok] = (docs[ok] @ target) / denom[ok]
        seed = _seed_ranked_pairs(seed_scores, top=10)

        fast_scores = cosine_similarities(model, qhat)
        assert np.allclose(fast_scores, seed_scores, atol=1e-12)
        fast = ranked_pairs(fast_scores, top=10)
        assert [j for j, _ in fast] == [j for j, _ in seed]


def test_med_rankings_identical_to_seed(med_model):
    """The MEDLINE worked example: the ranked path reproduces the seed
    ranking — same documents in the same order, scores within 1e-12 of
    the full fp64 score vector."""
    from repro.corpus.med import MED_QUERY

    qhat = project_query(med_model, MED_QUERY)
    seed_scores = cosine_similarities(med_model, qhat)
    seed = _seed_ranked_pairs(seed_scores)
    eng = LSIRetrieval(med_model)
    assert_ranking_matches(eng.search(MED_QUERY), seed)
    assert eng.search(MED_QUERY, top=5) == eng.search(MED_QUERY)[:5]


# --------------------------------------------------------------------- #
# zero-vector queries
# --------------------------------------------------------------------- #
def test_zero_query_vector_scores_zero(med_model):
    zero = np.zeros(med_model.k)
    s = cosine_similarities(med_model, zero)
    assert np.array_equal(s, np.zeros(med_model.n_documents))
    assert LSIRetrieval(med_model).scores_for_vector(zero).tolist() == s.tolist()
    snapshot = EpochSnapshot(0, med_model)
    assert snapshot.search(snapshot.scale(zero), top=3)[0] == [
        [(0, 0.0), (1, 0.0), (2, 0.0)]
    ]


def test_zero_norm_documents_score_zero(rng):
    local = np.random.default_rng(5)
    model = _random_model(local, n=12)
    model.V[4] = 0.0  # a zero document row, before the model is scored
    s = cosine_similarities(model, local.standard_normal(model.k))
    assert s[4] == 0.0
    norms = scaled_documents(model).norms
    assert norms[4] == 0.0
    assert norms[3] > 0.0


def test_engine_oov_query_scores_zero(small_lsi):
    eng = LSIRetrieval(small_lsi)
    assert np.array_equal(
        eng.scores_for_vector(eng.query_vector("qqq zzz www")),
        np.zeros(small_lsi.n_documents),
    )


# --------------------------------------------------------------------- #
# batch scoring: one kernel, regression vs the old implementation
# --------------------------------------------------------------------- #
def _old_batch_cosine_scores(model, qhats):
    """The pre-unification batch_cosine_scores math, verbatim."""
    Q = np.atleast_2d(np.asarray(qhats, dtype=np.float64))
    docs = model.V * model.s
    Qs = Q * model.s
    dn = np.sqrt(np.sum(docs**2, axis=1))
    qn = np.sqrt(np.sum(Qs**2, axis=1))
    denom = qn[:, None] * dn[None, :]
    raw = Qs @ docs.T
    out = np.zeros_like(raw)
    ok = denom > 0
    out[ok] = raw[ok] / denom[ok]
    return out


def test_batch_scores_row_for_row_vs_old_implementation(small_lsi, small_collection):
    Q = batch_project_queries(small_lsi, small_collection.queries)
    new = EpochSnapshot(0, small_lsi).score_batch(Q)
    old = _old_batch_cosine_scores(small_lsi, Q)
    assert new.shape == old.shape
    for i in range(new.shape[0]):
        assert np.allclose(new[i], old[i], atol=1e-12), f"row {i}"
        # Rankings must be element-identical, ties included.
        assert np.array_equal(
            np.argsort(-new[i], kind="stable"),
            np.argsort(-old[i], kind="stable"),
        )


def test_single_query_is_row_of_batch(small_lsi, small_collection):
    """cosine_similarities is literally the q=1 case of the batch path."""
    Q = batch_project_queries(small_lsi, small_collection.queries)
    batched = EpochSnapshot(0, small_lsi).score_batch(Q)
    for i, q in enumerate(small_collection.queries):
        single = cosine_similarities(small_lsi, Q[i])
        assert np.allclose(single, batched[i], atol=1e-12)


def test_batch_search_matches_per_query_search(small_lsi, small_collection):
    eng = LSIRetrieval(small_lsi)
    batched = _flat_search(small_lsi, small_collection.queries, top=7)
    for q, got in zip(small_collection.queries, batched):
        want = eng.search(q, top=7)
        assert [j for j, _ in got] == [j for j, _ in want]
        assert np.allclose([c for _, c in got], [c for _, c in want], atol=1e-12)


# --------------------------------------------------------------------- #
# row ranges merged with merge_topk: the whole-model search, bit for bit
# --------------------------------------------------------------------- #
def _range_merge(model, Qs, top, shards):
    """Each of ``shards`` row ranges ranked alone, merged per query."""
    per_range = [
        EpochSnapshot(0, model, lo=lo, hi=hi).search(Qs, top=top)[0]
        for lo, hi in shard_bounds(model.n_documents, shards)
    ]
    return [
        merge_topk([found[qi] for found in per_range], top)
        for qi in range(Qs.shape[0])
    ]


def test_range_merge_matches_batch_search(small_lsi, small_collection):
    Q = batch_project_queries(small_lsi, small_collection.queries)
    flat = whole_model_search(small_lsi, Q, 6)
    Qs = EpochSnapshot(0, small_lsi).scale(Q)
    for shards in (1, 2, 5):
        assert _range_merge(small_lsi, Qs, 6, shards) == flat


def test_empty_query_batch_ranks_nothing(small_lsi):
    """A (0, k) query matrix is a legal degenerate batch: no queries,
    no results, on the whole model and on a row range."""
    Q = np.empty((0, small_lsi.k))
    for snapshot in (
        EpochSnapshot(0, small_lsi), EpochSnapshot(0, small_lsi, lo=2, hi=9)
    ):
        assert snapshot.search(snapshot.scale(Q), top=4) == ([], None)


def test_top_exceeds_n_documents_returns_the_full_ranking(
    small_lsi, small_collection
):
    """top > n clamps to the full ranking, whole model and merged ranges
    alike (each range just returns all of its rows)."""
    Q = batch_project_queries(small_lsi, small_collection.queries[:3])
    n = small_lsi.n_documents
    flat = whole_model_search(small_lsi, Q, n + 25)
    assert all(len(ranking) == n for ranking in flat)
    Qs = EpochSnapshot(0, small_lsi).scale(Q)
    assert _range_merge(small_lsi, Qs, n + 25, 4) == flat


def test_range_merge_tie_order():
    """Ties spanning range boundaries resolve by ascending doc index,
    exactly as the flat stable sort does."""
    rng = np.random.default_rng(9)
    model = _random_model(rng, n=40)
    # Duplicate document rows → exact score ties everywhere.
    model.V[:] = np.tile(model.V[:4], (10, 1))
    qhat = rng.standard_normal(model.k)
    flat = ranked_pairs(cosine_similarities(model, qhat), top=12)
    Qs = EpochSnapshot(0, model).scale(qhat)
    got = _range_merge(model, Qs, 12, 7)[0]
    assert [j for j, _ in got] == [j for j, _ in flat]


# --------------------------------------------------------------------- #
# the lifetime rule: V_k Σ_k is derived once per model and dies with it
# --------------------------------------------------------------------- #
def test_index_is_cached_per_model(med_model):
    rows = scaled_documents(med_model)
    again = scaled_documents(med_model)
    assert again.norms is rows.norms and again.unit is rows.unit
    assert rows.unit.flags["C_CONTIGUOUS"]
    assert rows.V is med_model.V and rows.s is med_model.s
    assert np.allclose(rows.norms, row_norms(med_model.V * med_model.s))


def test_scored_model_dies_with_its_last_reference():
    model = _random_model(np.random.default_rng(11))
    cosine_similarities(model, np.ones(model.k))
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def test_every_scorer_shares_the_models_one_build():
    local = np.random.default_rng(13)
    model = _random_model(local)
    qhat = local.standard_normal(model.k)
    builds = registry.counter("serving.index_builds")
    LSIRetrieval(model).scores_for_vector(qhat)
    snapshot = EpochSnapshot(0, model)
    snapshot.search(snapshot.scale(qhat), top=3)
    assert registry.counter("serving.index_builds") == builds + 1
    rows = scaled_documents(model)
    assert snapshot.scaled is rows
    # The model's own factors, not a copy of them.
    assert rows.V is model.V and rows.s is model.s
    assert np.array_equal(rows.norms, row_norms(model.V * model.s))
    assert not rows.norms.flags.writeable and not rows.unit.flags.writeable
    # A successor made by replace() starts clean and derives its own.
    successor = dataclasses.replace(model)
    assert scaled_documents(successor).norms is not rows.norms
    assert registry.counter("serving.index_builds") == builds + 2


def _assert_source_epoch_untouched(pinned, before, Q, successor, p):
    """The successor scores ``n + p`` rows; the snapshot pinned on the
    source still answers its ``n`` rows with the scores it gave before."""
    n = pinned.n_documents
    assert EpochSnapshot(1, successor).score_batch(Q).shape == (len(Q), n + p)
    after = pinned.score_batch(Q)
    assert after.shape == (len(Q), n)
    assert np.array_equal(after, before)


@pytest.mark.parametrize(
    "update", [fold_in_documents, update_documents, fast_update_documents]
)
def test_update_leaves_the_pinned_source_epoch_untouched(med_model_k8, update):
    model = med_model_k8.truncated(4)  # private model: fixtures stay clean
    local = np.random.default_rng(3)
    Q = local.standard_normal((3, model.k))
    pinned = EpochSnapshot(0, model)
    before = pinned.score_batch(Q)
    counts = local.integers(0, 3, (model.n_terms, 2)).astype(float)
    successor = update(model, counts, ["N1", "N2"])
    _assert_source_epoch_untouched(pinned, before, Q, successor, 2)


def test_consolidation_leaves_the_pinned_source_epoch_untouched():
    """§5.6 real-time updating through the manager: every addition is
    visible in the next model, across fold-in AND the consolidation
    (recompute/SVD-update) paths that replace the model wholesale, and
    none of them disturbs a reader still pinned on the first epoch."""
    from repro.corpus.med import med_matrix

    mgr = LSIIndexManager(med_matrix(), k=4, distortion_budget=0.05)
    Q = np.random.default_rng(4).standard_normal((2, mgr.k))
    pinned = EpochSnapshot(0, mgr.model)
    before = pinned.score_batch(Q)
    actions = set()
    for i in range(6):  # small budget forces consolidations along the way
        actions.add(mgr.add_texts([f"blood pressure age study number {i}"]).action)
        _assert_source_epoch_untouched(pinned, before, Q, mgr.model, i + 1)
    assert actions & {"recompute", "svd-update"}


# --------------------------------------------------------------------- #
# counters & misc
# --------------------------------------------------------------------- #
def test_serving_counters_record_queries(med_model):
    registry.reset("serving.")
    eng = LSIRetrieval(med_model)
    eng.search("blood age", top=3)
    assert registry.counter("serving.queries_served") >= 1
    assert registry.histogram("serving.scan_seconds") is not None
    assert registry.histogram("serving.rescore_candidates").count == 1
    eng.scores_for_vector(eng.query_vector("blood age"))  # full-width kernel
    assert registry.histogram("serving.gemm_seconds") is not None


def test_nearest_terms_matches_seed_ordering(med_model):
    cos = None
    from repro.core.similarity import term_term_similarities

    for term in ("blood", "age", "fast"):
        cos = term_term_similarities(med_model, term)
        order = np.argsort(-cos, kind="stable")
        self_id = med_model.vocabulary.id_of(term)
        seed = []
        for idx in order:
            if idx == self_id:
                continue
            seed.append((med_model.vocabulary[int(idx)], float(cos[idx])))
            if len(seed) >= 5:
                break
        assert nearest_terms(med_model, term, top=5) == seed
