"""The one serving core: ranged snapshots, one ``search``, one service surface.

* a shard is an :class:`EpochSnapshot` over ``[lo, hi)``: per-range
  ``search`` merged with ``merge_topk`` equals the whole-model snapshot
  and the reference ``sharded_batch_search``;
* a ranged snapshot materialises only its own rows;
* :class:`ShardWorker` keeps exactly two epochs answerable;
* every HTTP route answers with the same status and top-level keys on
  each of the three services as it did before they shared a base.

Bits are compared only between scans of the *same* row slices: BLAS may
round the last ulp differently for a different slice shape, so a cut
that the reference does not make is held to indices + 1e-12 on scores.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.plan import ShardPlan
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.worker import ShardWorker
from repro.core.model import LSIModel
from repro.parallel.sharding import (
    merge_topk,
    shard_bounds,
    sharded_batch_search,
)
from repro.server import ServerConfig, state_from_texts
from repro.server.state import EpochSnapshot, manager_from_texts
from repro.serving.ann import CoarseQuantizer
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.tenancy.cluster import TenantClusterService
from repro.text import Vocabulary

from tests.test_server import _ServerThread

N, K, N_CLUSTERS = 120, 7, 6


def _model(duplicates: bool) -> LSIModel:
    rng = np.random.default_rng(5)
    V = rng.standard_normal((N, K))
    if duplicates:
        V[N // 2:] = V[: N - N // 2]  # exact score ties across ranges
    return LSIModel(
        U=np.eye(K),
        s=np.sort(rng.random(K) + 0.5)[::-1],
        V=V,
        vocabulary=Vocabulary([f"t{i}" for i in range(K)]).freeze(),
        doc_ids=[f"d{j}" for j in range(N)],
    )


def _with_ann(model: LSIModel, **ranges) -> EpochSnapshot:
    coords = EpochSnapshot(0, model).coords
    ann = CoarseQuantizer.train(coords, N_CLUSTERS, seed=0)
    return EpochSnapshot(0, model, ann=ann, **ranges)


MODEL = _model(duplicates=False)
WHOLE = _with_ann(MODEL)
# Two random queries and the all-OOV query (a zero vector).
QUERIES = np.vstack(
    [np.random.default_rng(9).standard_normal((2, K)), np.zeros((1, K))]
)


def _merged(model, cuts, Qs, top, **search):
    per_range = [
        EpochSnapshot(0, model, lo=lo, hi=hi, ann=WHOLE.ann).search(
            Qs, top=top, **search
        )[0]
        for lo, hi in cuts
    ]
    return [
        merge_topk([found[qi] for found in per_range], top)
        for qi in range(Qs.shape[0])
    ]


# --------------------------------------------------------------------- #
# (a) per-range search + merge_topk == whole model == reference
# --------------------------------------------------------------------- #
@settings(max_examples=40, deadline=None)
@given(
    inner=st.lists(st.integers(0, N), max_size=4),
    top=st.integers(1, N),
    threshold=st.sampled_from([None, -0.3, 0.2]),
    probes=st.sampled_from([None, 1, 4, N_CLUSTERS]),
)
def test_random_cuts_merge_to_the_whole_model(inner, top, threshold, probes):
    bounds = sorted({0, N, *inner})
    cuts = list(zip(bounds, bounds[1:]))
    Qs = WHOLE.scale(QUERIES)
    search = dict(threshold=threshold, probes=probes)
    want, _ = WHOLE.search(Qs, top=top, **search)
    got = _merged(MODEL, cuts, Qs, top, **search)
    for merged, whole in zip(got, want):
        assert [j for j, _ in merged] == [j for j, _ in whole]
        assert np.allclose(
            [s for _, s in merged], [s for _, s in whole], rtol=0, atol=1e-12
        )
    # The zero vector scores exactly 0 on every slice: ties everywhere,
    # broken by ascending index through the merge.
    assert got[-1] == want[-1]
    # One explicit range over everything scans the same rows as the
    # whole-model snapshot: identical to the bit.
    assert _merged(MODEL, [(0, N)], Qs, top, **search) == want


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_reference_cuts_are_element_identical(shards):
    # The reference makes these cuts itself, so every slice has the same
    # shape on both sides: indices, scores and tie order (half the rows
    # are duplicates of the other half) must agree exactly.
    model = _model(duplicates=True)
    top = 25
    reference = sharded_batch_search(model, QUERIES, top=top, shards=shards)
    Qs = WHOLE.scale(QUERIES)
    assert _merged(model, shard_bounds(N, shards), Qs, top) == reference
    # Probing every cell is the exact scan, range by range.  The probe
    # path scores one query at a time (a GEMV), so its reference does too.
    one_by_one = [
        sharded_batch_search(model, QUERIES[i:i + 1], top=top, shards=shards)[0]
        for i in range(len(QUERIES))
    ]
    assert (
        _merged(model, shard_bounds(N, shards), Qs, top, probes=N_CLUSTERS)
        == one_by_one
    )
    # ``exact`` overrides a probe count.
    assert (
        _merged(model, shard_bounds(N, shards), Qs, top, probes=1, exact=True)
        == reference
    )


# --------------------------------------------------------------------- #
# (b) a ranged snapshot holds its own rows and nothing else
# --------------------------------------------------------------------- #
def test_ranged_snapshot_materialises_only_its_rows():
    lo, hi = 30, 75
    ranged = EpochSnapshot(0, MODEL, lo=lo, hi=hi)
    assert ranged.coords.shape == (hi - lo, K)
    assert ranged.norms.shape == (hi - lo,)
    assert ranged.n_documents == N  # the epoch's document count, not the range
    assert ranged.coords.flags.owndata or ranged.coords.base.shape[0] == hi - lo
    assert not np.shares_memory(ranged.coords, WHOLE.coords)
    assert np.array_equal(ranged.coords, WHOLE.coords[lo:hi])


# --------------------------------------------------------------------- #
# (c) the worker's two-epoch window
# --------------------------------------------------------------------- #
def _texts(n, seed):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)]
    return [" ".join(rng.choice(vocab, size=15)) for _ in range(n)]


def _seed_store(path, seed=3):
    texts = _texts(24, seed)
    store = DurableIndexStore.initialize(
        path, manager_from_texts(texts, [f"D{i}" for i in range(24)], k=8)
    )
    store.close(flush=False)
    return path


def test_worker_holds_current_and_previous_epoch_only(tmp_path):
    data_dir = _seed_store(tmp_path / "store")
    store = DurableIndexStore.open(data_dir)
    seals = []
    for step in range(3):
        store.add_texts(_texts(2, seed=20 + step), [f"E{step}a", f"E{step}b"])
        seals.append(store.seal(reason="test"))
    store.close(flush=False)

    def plan_for(seal):
        return ShardPlan.compute(
            seal.n_documents, 2, epoch=seal.epoch, checkpoint=seal.name
        )

    first, second, third = seals
    worker = ShardWorker(
        open_checkpoint(data_dir, first.name).model(), plan_for(first).shard(1),
        epoch=first.epoch, data_dir=data_dir,
    )
    old_snapshot = worker.current
    q = np.ones((1, old_snapshot.k))
    frame = {"op": "score", "queries": q.tolist(), "top": 5}

    assert worker.bump(plan_for(second).to_json())["ok"]
    # A frame that pinned the old epoch before the swap still scores the
    # old snapshot — not the new rows.
    assert worker.previous is old_snapshot
    old = worker.handle({**frame, "epoch": first.epoch})
    assert old["epoch"] == first.epoch
    want, _ = old_snapshot.search(q, top=5)
    assert old["results"] == [[list(pair) for pair in want[0]]]
    assert worker.handle({**frame, "epoch": second.epoch})["epoch"] == second.epoch

    assert worker.bump(plan_for(third).to_json())["ok"]
    # Two bumps old: outside the window.
    stale = worker.handle({**frame, "epoch": first.epoch})
    assert stale["stale_epoch"] is True and stale["epoch"] == third.epoch
    assert "error" not in worker.handle({**frame, "epoch": second.epoch})
    assert worker.handle(frame)["epoch"] == third.epoch


# --------------------------------------------------------------------- #
# (d) one endpoint matrix over the three services
# --------------------------------------------------------------------- #
_OBS = {
    "GET /stats": (200, {"metrics", "schema", "server", "slow_queries", "spans"}),
    "GET /metrics": (200, {"counters", "gauges", "histograms"}),
    "GET /metrics?format=prom": (200, "text/plain"),
    "GET /trace?id=abc": (200, {"spans", "trace_id", "workers"}),
}
_TENANTS = (200, {"max_resident", "quotas", "tenants"})
_READ_ONLY = (403, {"error", "read_only", "request_id"})
_CLUSTER_SEARCH = {"epoch", "missing", "n_documents", "partial", "results"}

#: Status code and top-level key set of every route, captured at the
#: commit before the three services shared ``ServiceBase``.
EXPECTED = {
    "QueryService": {
        **_OBS,
        "GET /healthz": (200, {
            "ann", "default_probes", "draining", "epoch", "n_documents",
            "queue_capacity", "queue_depth", "slowlog", "status", "writable",
        }),
        "GET /tenants": _TENANTS,
        "POST /search": (200, {"epoch", "n_documents", "results"}),
        "POST /add": (200, {"action", "epoch", "n_documents", "reason"}),
    },
    "ClusterService": {
        **_OBS,
        "GET /healthz": (200, {
            "ann", "checkpoint", "default_probes", "draining", "epoch",
            "n_documents", "n_shards", "n_workers", "ranges", "replication",
            "slowlog", "status", "workers", "workers_live", "writer",
        }),
        "GET /tenants": (400, {"error", "request_id"}),
        "POST /search": (200, _CLUSTER_SEARCH),
        "POST /add": _READ_ONLY,
    },
    "TenantClusterService": {
        **_OBS,
        "GET /healthz": (200, {
            "draining", "fleets", "max_resident", "queue_capacity",
            "queue_depth", "status", "tenants",
        }),
        "GET /tenants": _TENANTS,
        "POST /search": (200, _CLUSTER_SEARCH | {"tenant"}),
        "POST /add": _READ_ONLY,
    },
}


def _call(port, route, body):
    method, path = route.split()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if method == "GET" else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type").startswith("text/plain"):
            return response.status, "text/plain"
        return response.status, set(json.loads(raw))
    finally:
        conn.close()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_endpoint_matrix(name, tmp_path):
    cluster = ClusterConfig(workers=2)
    tenant = None
    if name == "QueryService":
        server = _ServerThread(
            state_from_texts(_texts(30, 3), k=8), ServerConfig()
        )
    elif name == "ClusterService":
        server = _ServerThread(
            _seed_store(tmp_path / "a"), cluster, make_service=ClusterService
        )
    else:
        tenant = "alpha"
        server = _ServerThread(
            {
                "alpha": _seed_store(tmp_path / "a"),
                "beta": _seed_store(tmp_path / "b", seed=4),
            },
            cluster,
            make_service=TenantClusterService,
        )
    bodies = {
        "POST /search": {"query": "w1 w2 w3", "top": 3},
        "POST /add": {"texts": ["w1 w2 w9"]},
    }
    with server:
        got = {
            route: _call(
                server.port,
                route,
                {**bodies[route], "tenant": tenant}
                if tenant and route in bodies
                else bodies.get(route),
            )
            for route in EXPECTED[name]
        }
    assert got == EXPECTED[name]
