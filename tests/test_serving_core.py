"""The one serving core: ranged snapshots, one ``search``, one service surface.

* a shard is an :class:`EpochSnapshot` over ``[lo, hi)``: per-range
  ``search`` merged with ``merge_topk`` equals the whole-model snapshot,
  bit for bit;
* a ranged snapshot materialises only its own rows;
* :class:`ShardWorker` keeps exactly two epochs answerable;
* every HTTP route answers with the same status and (at least) the same
  top-level keys on each of the four deployments — in process or a
  fleet, one tenant or two — through the one front end, and the same
  store and query rank the same, to the bit, whichever backend scores
  them;
* one tenant's ``/add`` never waits on another's.

A reported score is a pure function of (row, query) (the row-local
kernel of :mod:`repro.serving.scan`), so however the rows are cut the
whole-model snapshot is the reference, compared bit for bit; it is held
to the fp64 oracle in ``tests/test_serving_scan.py``.
"""

from __future__ import annotations

import asyncio
import functools
import http.client
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.plan import ShardPlan
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.worker import ShardWorker
from repro.core.model import LSIModel
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.server import QueryService, ServerConfig, ServingState
from repro.server.state import EpochSnapshot, manager_from_texts
from repro.serving.ann import CoarseQuantizer
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.tenancy import IndexRegistry
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
    ann = CoarseQuantizer.train(model.V * model.s, N_CLUSTERS, seed=0)
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
# (a) per-range search + merge_topk == whole model
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
    # The zero vector (last) scores exactly 0 on every slice: ties
    # everywhere, broken by ascending index through the merge.
    assert _merged(MODEL, cuts, Qs, top, **search) == want
    # One explicit range over everything: identical too.
    assert _merged(MODEL, [(0, N)], Qs, top, **search) == want


@pytest.mark.parametrize("shards", [1, 2, 3, 7])
def test_reference_cuts_are_element_identical(shards):
    # The cluster plan's cuts on a model whose second half duplicates
    # its first: indices, scores and tie order must equal the
    # whole-model snapshot's exactly.
    model = _model(duplicates=True)
    top = 25
    whole = EpochSnapshot(0, model)
    Qs = whole.scale(QUERIES)
    reference, _ = whole.search(Qs, top=top)
    cuts = shard_bounds(N, shards)
    assert _merged(model, cuts, Qs, top) == reference
    # Probing every cell is the exact scan, range by range.
    assert _merged(model, cuts, Qs, top, probes=N_CLUSTERS) == reference
    # ``exact`` overrides a probe count.
    assert _merged(model, cuts, Qs, top, probes=1, exact=True) == reference


# --------------------------------------------------------------------- #
# (b) a ranged snapshot holds its own rows and nothing else
# --------------------------------------------------------------------- #
def test_ranged_snapshot_materialises_only_its_rows():
    lo, hi = 30, 75
    ranged = EpochSnapshot(0, MODEL, lo=lo, hi=hi)
    # It scores the model's own rows lo:hi, not a copy of them ...
    assert ranged.scaled.V.shape == (hi - lo, K)
    assert np.shares_memory(ranged.scaled.V, MODEL.V)
    assert np.array_equal(ranged.scaled.V, MODEL.V[lo:hi])
    # ... and derives its norms and unit rows for those rows alone.
    assert ranged.norms.shape == (hi - lo,)
    assert ranged.scaled.unit.shape == (hi - lo, K)
    assert ranged.n_documents == N  # the epoch's document count, not the range
    for derived in (ranged.norms, ranged.scaled.unit):
        assert derived.base is None or derived.base.shape[0] == hi - lo
        assert not np.shares_memory(derived, WHOLE.scaled.norms)
        assert not np.shares_memory(derived, WHOLE.scaled.unit)
    assert np.array_equal(ranged.norms, WHOLE.norms[lo:hi])


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
    assert [r.tolist() for r in old["results"]] == want
    assert worker.handle({**frame, "epoch": second.epoch})["epoch"] == second.epoch

    assert worker.bump(plan_for(third).to_json())["ok"]
    # Two bumps old: outside the window.
    stale = worker.handle({**frame, "epoch": first.epoch})
    assert stale["stale_epoch"] is True and stale["epoch"] == third.epoch
    assert "error" not in worker.handle({**frame, "epoch": second.epoch})
    assert worker.handle(frame)["epoch"] == third.epoch


# --------------------------------------------------------------------- #
# (d) one endpoint matrix over the four deployments of the one front end
# --------------------------------------------------------------------- #
_OBS = {
    "GET /stats": (200, {"metrics", "schema", "server", "slow_queries", "spans"}),
    "GET /metrics": (200, {"counters", "gauges", "histograms"}),
    "GET /metrics?format=prom": (200, "text/plain"),
    "GET /trace?id=abc": (200, {"spans", "trace_id", "workers"}),
    "GET /tenants": (200, {"max_resident", "quotas", "tenants"}),
}
_FRONT_END = {
    "draining", "queue_capacity", "queue_depth", "slowlog", "status",
}
_TENANT_TABLE = {"fleets", "max_resident", "tenants"}
_READ_ONLY = (403, {"error", "read_only", "request_id"})
_ADDED = (200, {"action", "epoch", "n_documents", "reason"})
_SEARCH = {"epoch", "n_documents", "results"}
_CLUSTER_SEARCH = _SEARCH | {"missing", "partial"}


def _searches(keys):
    """``/search`` asking for three results and for none: one answer shape."""
    return {"POST /search": (200, keys), "POST /search top=0": (200, keys)}


#: Status code and top-level key set of every route.  The ids are the
#: classes that answered each deployment before ``QueryService`` was the
#: only front end (kept so the test ids do not move); every key those
#: classes replied with is still here, at the same level, except the
#: front end's ``default_probes`` (a request names its own probes) —
#: otherwise the sets have only grown (``queue_*`` on the fleet,
#: ``fleets`` in process, ``slowlog`` over two fleets).
EXPECTED = {
    # in process, one tenant
    "QueryService": {
        **_OBS,
        "GET /healthz": (
            200, _FRONT_END | {"ann", "epoch", "n_documents", "writable"}
        ),
        **_searches(_SEARCH),
        "POST /add": _ADDED,
    },
    # in process, two tenants
    "TenantQueryService": {
        **_OBS,
        "GET /healthz": (200, _FRONT_END | _TENANT_TABLE),
        **_searches(_SEARCH | {"tenant"}),
        "POST /add": _ADDED,
    },
    # a fleet, one tenant
    "ClusterService": {
        **_OBS,
        "GET /healthz": (200, _FRONT_END | {
            "ann", "checkpoint", "epoch", "n_documents", "n_shards",
            "n_workers", "ranges", "replication", "workers", "workers_live",
            "writer",
        }),
        **_searches(_CLUSTER_SEARCH),
        "POST /add": _READ_ONLY,
    },
    # two fleets, two tenants
    "TenantClusterService": {
        **_OBS,
        "GET /healthz": (200, _FRONT_END | _TENANT_TABLE),
        **_searches(_CLUSTER_SEARCH | {"tenant"}),
        "POST /add": _READ_ONLY,
    },
}

#: Every deployment serves this corpus (as its sole tenant, or as
#: ``alpha``), so one in-process reference ranks for all four.
_SEEDS = {"alpha": 3, "beta": 4}
_IDS = [f"D{i}" for i in range(24)]
_QUERY = "w1 w2 w3"


def _call(port, route, body):
    method, path = route.split()[:2]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = None if method == "GET" else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        raw = response.read()
        if response.getheader("Content-Type").startswith("text/plain"):
            return response.status, "text/plain"
        return response.status, json.loads(raw)
    finally:
        conn.close()


def _hosted(name, tmp_path):
    """What the front end hosts in deployment ``name``."""
    fleet = name.endswith("ClusterService")
    tenants = ("alpha", "beta") if name.startswith("Tenant") else ("alpha",)

    def build(tid):
        if not fleet:
            return ServingState.for_manager(
                manager_from_texts(_texts(24, _SEEDS[tid]), _IDS, k=8)
            )
        return ClusterService(
            _seed_store(tmp_path / tid, seed=_SEEDS[tid]),
            ClusterConfig(workers=2),
            tenant=tid if len(tenants) > 1 else None,
        )

    if len(tenants) == 1:
        return build("alpha")  # bare: the front end wraps it itself
    registry = IndexRegistry()
    for tid in tenants:
        if fleet:  # attached, and its workers spawned, by the first query
            registry.register(tid, loader=functools.partial(build, tid))
        else:
            registry.register(tid, state=build(tid))
    return registry


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_endpoint_matrix(name, tmp_path):
    tenant = "alpha" if name.startswith("Tenant") else None
    bodies = {
        "POST /search": {"query": _QUERY, "top": 3},
        "POST /search top=0": {"query": _QUERY, "top": 0},
        "POST /add": {"texts": ["w1 w2 w9"]},
    }
    replies = {}
    with _ServerThread(_hosted(name, tmp_path), ServerConfig()) as server:
        for route in EXPECTED[name]:
            body = bodies.get(route)
            if tenant and body:
                body = {**body, "tenant": tenant}
            replies[route] = _call(server.port, route, body)
    got = {
        route: (status, set(body) if isinstance(body, dict) else body)
        for route, (status, body) in replies.items()
    }
    assert got == EXPECTED[name]

    # ``top=0`` asks for nothing and gets nothing, complete, everywhere.
    nothing = replies["POST /search top=0"][1]
    assert nothing["results"] == [] and not nothing.get("partial")

    # Same store, same query, same ranking to the bit — whichever backend
    # scored it (/search ran before /add), however many ranges it cut.
    reference = EpochSnapshot(
        0, manager_from_texts(_texts(24, _SEEDS["alpha"]), _IDS, k=8).model
    )
    want, _ = reference.search(
        reference.scale(reference.project(_QUERY)[None, :]), top=3
    )
    assert replies["POST /search"][1]["results"] == [
        [j, score, _IDS[j]] for j, score in want[0]
    ]


# --------------------------------------------------------------------- #
# (e) the writer lock is per index
# --------------------------------------------------------------------- #
def test_one_tenants_add_never_waits_on_anothers(monkeypatch):
    states = {
        tid: ServingState.for_manager(
            manager_from_texts(_texts(24, seed), _IDS, k=8)
        )
        for tid, seed in _SEEDS.items()
    }
    registry = IndexRegistry()
    for tid, state in states.items():
        registry.register(tid, state=state)

    # Park alpha's writer on an event, the way the scheduler tests hold
    # the scorer: no sleeps, "while alpha consolidates" by construction.
    entered, release = threading.Event(), threading.Event()
    add_texts = states["alpha"].add_texts

    def parked(texts, doc_ids=None):
        entered.set()
        assert release.wait(30), "test never released alpha's writer"
        return add_texts(texts, doc_ids)

    monkeypatch.setattr(states["alpha"], "add_texts", parked)

    async def main():
        service = QueryService(registry)
        await service.start()
        alpha = asyncio.ensure_future(service.add(["w1 w2"], tenant="alpha"))
        try:
            while not entered.is_set():
                await asyncio.sleep(0)  # a yield, not a wait
            # Bounded only so a shared lock fails instead of hanging.
            beta = await asyncio.wait_for(
                service.add(["w3 w4"], tenant="beta"), timeout=10
            )
            assert beta["n_documents"] == 25
            assert not alpha.done()
        finally:
            release.set()
        assert (await alpha)["n_documents"] == 25
        await service.drain()

    asyncio.run(main())
