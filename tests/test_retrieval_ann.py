"""Tests for k-means and probe-bounded near-neighbour search (§5.6).

The search tests drive the one serving entry point —
``EpochSnapshot(0, model, ann=CoarseQuantizer.train(...)).search`` — over
a synthetic hub-structured model.
"""

import numpy as np
import pytest

from repro.core.model import LSIModel
from repro.core.similarity import cosine_similarities
from repro.errors import ShapeError
from repro.server.state import EpochSnapshot
from repro.serving.ann import CoarseQuantizer, kmeans
from repro.serving.index import scaled_rows
from repro.text.vocabulary import Vocabulary
from repro.util.rng import ensure_rng
from tests.test_serving_scan import _first_copy


# --------------------------------------------------------------------- #
# k-means
# --------------------------------------------------------------------- #
def test_kmeans_separates_obvious_clusters():
    rng = ensure_rng(1)
    a = rng.normal([0, 0], 0.1, (30, 2))
    b = rng.normal([10, 10], 0.1, (30, 2))
    X = np.vstack([a, b])
    centroids, assignment = kmeans(X, 2, seed=0)
    assert centroids.shape == (2, 2)
    # All of a in one cluster, all of b in the other.
    assert len(set(assignment[:30])) == 1
    assert len(set(assignment[30:])) == 1
    assert assignment[0] != assignment[30]


def test_kmeans_deterministic():
    rng = ensure_rng(2)
    X = rng.standard_normal((40, 3))
    c1, a1 = kmeans(X, 4, seed=5)
    c2, a2 = kmeans(X, 4, seed=5)
    assert np.array_equal(c1, c2) and np.array_equal(a1, a2)


def test_kmeans_k_equals_n():
    X = np.arange(6, dtype=float).reshape(3, 2)
    centroids, assignment = kmeans(X, 3, seed=0)
    assert sorted(assignment.tolist()) == [0, 1, 2]


def test_kmeans_duplicate_points():
    X = np.ones((10, 2))
    centroids, assignment = kmeans(X, 2, seed=0)
    assert np.allclose(centroids, 1.0)


def test_kmeans_validation():
    with pytest.raises(ShapeError):
        kmeans(np.zeros(5), 2)
    with pytest.raises(ShapeError):
        kmeans(np.zeros((3, 2)), 4)
    with pytest.raises(ShapeError):
        kmeans(np.zeros((3, 2)), 0)


# --------------------------------------------------------------------- #
# cluster index
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def big_model():
    rng = ensure_rng(4)
    n, k = 4000, 16
    # Documents concentrated around a handful of latent directions so
    # clustering has structure to find.
    hubs = rng.standard_normal((12, k))
    V = hubs[rng.integers(12, size=n)] + 0.15 * rng.standard_normal((n, k))
    s = np.sort(rng.random(k) + 0.5)[::-1]
    return LSIModel(
        U=np.eye(k),
        s=s,
        V=V,
        vocabulary=Vocabulary([f"t{i}" for i in range(k)]).freeze(),
        doc_ids=[f"d{j}" for j in range(n)],
    )


def _snapshot(model, **train) -> EpochSnapshot:
    return EpochSnapshot(
        0, model, ann=CoarseQuantizer.train(model.V * model.s, seed=0, **train)
    )


@pytest.fixture(scope="module")
def index(big_model):
    return _snapshot(big_model)


def _probe(index, qhat, *, top=10, probes=2):
    """One query's ``(pairs, documents_scored)`` at ``probes``."""
    results, stats = index.search(index.scale(qhat), top=top, probes=probes)
    return results[0], stats[0]["candidates"]


def _recall_at(index, qhat, *, top, probes) -> float:
    exact, _ = index.search(index.scale(qhat), top=top)
    approx, _ = _probe(index, qhat, top=top, probes=probes)
    return len({j for j, _ in approx} & {j for j, _ in exact[0]}) / top


def test_index_covers_all_documents(index, big_model):
    ann = index.ann
    covered = np.concatenate([ann.cell(c) for c in range(ann.n_clusters)])
    assert sorted(covered.tolist()) == list(range(big_model.n_documents))
    assert ann.n_clusters == int(np.sqrt(big_model.n_documents))


def test_probe_search_scores_fraction(index, big_model):
    rng = ensure_rng(9)
    qhat = rng.standard_normal(big_model.k)
    results, scored = _probe(index, qhat, top=10, probes=2)
    assert len(results) == 10
    assert scored < big_model.n_documents * 0.25
    scores = [c for _, c in results]
    assert scores == sorted(scores, reverse=True)


def test_recall_improves_with_probes(index, big_model):
    rng = ensure_rng(10)
    queries = rng.standard_normal((20, big_model.k))
    n_clusters = index.ann.n_clusters
    recall = {
        p: float(np.mean([_recall_at(index, q, top=10, probes=p) for q in queries]))
        for p in (1, 4, n_clusters)
    }
    assert recall[1] <= recall[4] + 1e-9
    assert recall[4] <= recall[n_clusters] + 1e-9
    assert recall[n_clusters] == pytest.approx(1.0)
    assert recall[4] > 0.6


def test_full_probe_matches_exact(index, big_model):
    rng = ensure_rng(11)
    qhat = rng.standard_normal(big_model.k)
    exact = cosine_similarities(big_model, qhat)
    true_top = np.argsort(-exact, kind="stable")[:5]
    approx, scored = _probe(index, qhat, top=5, probes=index.ann.n_clusters)
    assert scored == big_model.n_documents
    assert [j for j, _ in approx] == true_top.tolist()


def test_zero_query(index, big_model):
    # No direction to probe along: every cell is probed, so the answer is
    # the exact scan's all-zero ranking (ascending index), not a subset.
    zero = np.zeros(big_model.k)
    results, scored = _probe(index, zero, top=10, probes=1)
    assert scored == big_model.n_documents
    assert results == [(j, 0.0) for j in range(10)]
    assert results == index.search(index.scale(zero), top=10)[0][0]


def test_search_validation(index):
    with pytest.raises(ShapeError):
        index.scale(np.ones(3))
    with pytest.raises(ShapeError):
        index.search_ann(np.ones(3), probes=1)
    # top=0 asks for nothing and gets nothing.
    assert _probe(index, np.ones(index.k), top=0)[0] == []


def test_build_validation():
    model = LSIModel(
        np.eye(2), np.ones(2), np.zeros((0, 2)),
        Vocabulary(["a", "b"]).freeze(), [],
    )
    with pytest.raises(ShapeError):
        _snapshot(model)


def test_probes_clamp_to_n_clusters(index, big_model):
    rng = ensure_rng(12)
    qhat = rng.standard_normal(big_model.k)
    n_clusters = index.ann.n_clusters
    at_max, scored_max = _probe(index, qhat, top=10, probes=n_clusters)
    beyond, scored_beyond = _probe(index, qhat, top=10, probes=10**6)
    assert beyond == at_max
    assert scored_beyond == scored_max == big_model.n_documents


def test_top_larger_than_candidate_set(index, big_model):
    # One probed cell holds far fewer documents than this `top`; the
    # result is simply every candidate, ranked — never padding.
    rng = ensure_rng(13)
    qhat = rng.standard_normal(big_model.k)
    results, scored = _probe(
        index, qhat, top=big_model.n_documents, probes=1
    )
    assert 0 < len(results) == scored < big_model.n_documents
    scores = [s for _, s in results]
    assert scores == sorted(scores, reverse=True)


def test_empty_cell_probe_returns_empty():
    # Build a quantizer by hand with one empty posting list: a probe
    # that lands only there scores nothing and returns no results.
    quantizer = CoarseQuantizer(
        centroids=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        cell_indptr=np.array([0, 3, 3]),  # cell 1 is empty
        cell_docs=np.array([0, 1, 2]),
    )
    coords = np.array([[1.0, 0.1], [1.0, -0.1], [0.9, 0.0]])
    pairs, stats = quantizer.select(
        scaled_rows(coords, np.ones(2), quantizer),
        np.array([-1.0, 0.0]),  # nearest centroid is the empty cell
        probes=1,
    )
    assert pairs == []
    assert stats["candidates"] == 0


def test_quantizer_csr_validation():
    centroids = np.ones((2, 2))
    with pytest.raises(ShapeError):
        CoarseQuantizer(centroids, np.array([0, 1]), np.array([0, 1]))
    with pytest.raises(ShapeError):  # indptr not monotone
        CoarseQuantizer(centroids, np.array([0, 2, 1]), np.array([0, 1]))
    with pytest.raises(ShapeError):  # indptr[-1] != len(docs)
        CoarseQuantizer(centroids, np.array([0, 1, 3]), np.array([0, 1]))


def test_full_probe_identical_with_duplicate_rows():
    # Duplicate document vectors force exact score ties; the full-probe
    # ranking must reproduce the exhaustive scan element-for-element —
    # indices, scores, and ascending-index tie order.
    rng = ensure_rng(14)
    k, n_unique = 6, 9
    base = rng.standard_normal((n_unique, k))
    V = np.vstack([base, base[::2], base[:3]])  # rows repeat verbatim
    model = LSIModel(
        U=np.eye(k),
        s=np.sort(rng.random(k) + 0.5)[::-1],
        V=V,
        vocabulary=Vocabulary([f"t{i}" for i in range(k)]).freeze(),
        doc_ids=[f"d{j}" for j in range(V.shape[0])],
    )
    index = _snapshot(model, n_clusters=4)
    qhat = rng.standard_normal(k)
    exact = cosine_similarities(model, qhat)
    pairs, scored = _probe(
        index, qhat, top=model.n_documents, probes=index.ann.n_clusters
    )
    assert scored == model.n_documents
    # Bit-equal to the exhaustive ranked path ...
    assert pairs == index.search(
        index.scale(qhat), top=model.n_documents
    )[0][0]
    # ... whose exact ties come out in ascending index order, and whose
    # scores are the full fp64 vector's to 1e-12 (a GEMV may split a tie
    # between verbatim copies in the last bit; the row-local kernel cannot).
    canonical = exact[_first_copy(V)]
    assert [j for j, _ in pairs] == np.argsort(
        -canonical, kind="stable"
    ).tolist()
    assert np.allclose(
        [s for _, s in pairs], -np.sort(-exact), rtol=0, atol=1e-12
    )
