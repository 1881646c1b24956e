"""Tests for the parallel execution helpers."""

import numpy as np
import pytest

from repro.core.query import project_query
from repro.core.similarity import cosine_similarities
from repro.errors import ShapeError
from repro.parallel import (
    merge_topk,
    parallel_map,
    shard_documents,
    sharded_search,
)


# --------------------------------------------------------------------- #
# pool
# --------------------------------------------------------------------- #
def test_parallel_map_preserves_order():
    items = list(range(50))
    assert parallel_map(lambda x: x * x, items, workers=4) == [
        x * x for x in items
    ]


def test_parallel_map_sequential_fallback():
    assert parallel_map(str, [1, 2], workers=None) == ["1", "2"]
    assert parallel_map(str, [1, 2], workers=1) == ["1", "2"]
    assert parallel_map(str, [], workers=8) == []


def test_parallel_map_propagates_exceptions():
    def boom(x):
        raise ValueError(f"bad {x}")

    with pytest.raises(ValueError):
        parallel_map(boom, [1, 2, 3], workers=3)


# --------------------------------------------------------------------- #
# sharding
# --------------------------------------------------------------------- #
def test_shard_documents_partition():
    shards = shard_documents(10, 3)
    assert len(shards) == 3
    joined = np.concatenate(shards)
    assert np.array_equal(joined, np.arange(10))
    with pytest.raises(ShapeError):
        shard_documents(10, 0)
    with pytest.raises(ShapeError):
        shard_documents(-1, 2)


def test_shard_more_shards_than_docs():
    shards = shard_documents(2, 5)
    assert sum(s.size for s in shards) == 2


def test_merge_topk():
    a = [(0, 0.9), (1, 0.5)]
    b = [(2, 0.7), (3, 0.1)]
    merged = merge_topk([a, b], 3)
    assert merged == [(0, 0.9), (2, 0.7), (1, 0.5)]
    with pytest.raises(ShapeError):
        merge_topk([a], 0)


def test_merge_topk_tie_order_matches_flat_stable_argsort():
    """Property: merging per-shard stable top-k lists reproduces the flat
    stable argsort exactly — indices, scores, AND tie order — for scores
    drawn from a tiny value set, so duplicates straddle shard boundaries
    constantly."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from repro.parallel.sharding import shard_bounds
    from repro.serving.topk import topk_indices

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
            min_size=1,
            max_size=60,
        ),
        shards=st.integers(min_value=1, max_value=7),
        top=st.integers(min_value=1, max_value=70),
    )
    def check(scores, shards, top):
        s = np.asarray(scores, dtype=np.float64)
        per_shard = []
        for lo, hi in shard_bounds(s.size, shards):
            chunk = s[lo:hi]
            order = topk_indices(chunk, min(top, chunk.size))
            per_shard.append([(lo + int(j), float(chunk[j])) for j in order])
        merged = merge_topk(per_shard, top)
        flat_order = np.argsort(-s, kind="stable")[:top]
        assert merged == [(int(j), float(s[j])) for j in flat_order]

    check()


def test_sharded_search_matches_flat(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    flat = cosine_similarities(med_model, qhat)
    order = np.argsort(-flat, kind="stable")[:5]
    expected = [(int(j), pytest.approx(float(flat[j]))) for j in order]
    for shards in (1, 2, 5):
        got = sharded_search(med_model, qhat, shards=shards, top=5)
        assert [g[0] for g in got] == [e[0] for e in expected]
        for (gj, gc), (ej, ec) in zip(got, expected):
            assert gc == ec


def test_sharded_search_with_workers(med_model):
    qhat = project_query(med_model, "age blood abnormalities")
    a = sharded_search(med_model, qhat, shards=3, top=4, workers=None)
    b = sharded_search(med_model, qhat, shards=3, top=4, workers=3)
    assert a == b
