"""Tests for the row partition and the exact top-k merge."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import project_query
from repro.errors import ShapeError
from repro.parallel.sharding import RANKED, merge_topk, shard_bounds
from repro.server.state import EpochSnapshot

from tests.test_serving_scan import whole_model_search


def test_shard_bounds_partition():
    bounds = shard_bounds(10, 3)
    assert len(bounds) == 3
    joined = np.concatenate([np.arange(lo, hi) for lo, hi in bounds])
    assert np.array_equal(joined, np.arange(10))
    with pytest.raises(ShapeError):
        shard_bounds(10, 0)
    with pytest.raises(ShapeError):
        shard_bounds(-1, 2)


def test_shard_more_shards_than_docs():
    bounds = shard_bounds(2, 5)
    assert sum(hi - lo for lo, hi in bounds) == 2


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


def _heap_merge(per_shard, k):
    """The reference merge: a stable heap over the chained pairs."""
    return heapq.nlargest(
        k,
        ((int(j), float(score)) for pairs in per_shard for j, score in pairs),
        key=lambda pair: pair[1],
    )


@settings(max_examples=300, deadline=None)
@given(
    shards=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from([1.0, 0.5, 0.0, -0.0, -0.5])
                | st.floats(allow_nan=False),
                max_size=12,
            ),
            st.booleans(),
        ),
        max_size=5,
    ),
    k=st.integers(1, 80),
)
def test_merge_topk_equals_the_heap_merge(shards, k):
    """Property: the one stable sort keeps ``heapq.nlargest``'s order —
    ties at the cut, empty ranges, ``k`` past the total, and record
    arrays mixed with tuple lists, each score kept bit for bit."""
    per_shard, start = [], 0
    for scores, as_records in shards:
        pairs = [(start + i, score) for i, score in enumerate(scores)]
        start += len(scores)
        per_shard.append(
            np.array(pairs, dtype=RANKED) if as_records else pairs
        )
    merged = merge_topk(per_shard, k)
    want = _heap_merge(per_shard, k)
    assert [(j, score.hex()) for j, score in merged] == [
        (j, score.hex()) for j, score in want
    ]
    assert all(type(j) is int and type(s) is float for j, s in merged)


def test_range_snapshots_merge_to_flat(med_model):
    """Row ranges searched on their own and merged with ``merge_topk``
    are the whole-model search, bit for bit."""
    qhat = project_query(med_model, "age blood abnormalities")
    (want,) = whole_model_search(med_model, qhat, 5)
    Qs = EpochSnapshot(0, med_model).scale(qhat)
    for shards in (1, 2, 5):
        per_range = [
            EpochSnapshot(0, med_model, lo=lo, hi=hi).search(Qs, top=5)[0][0]
            for lo, hi in shard_bounds(med_model.n_documents, shards)
        ]
        assert merge_topk(per_range, 5) == want
