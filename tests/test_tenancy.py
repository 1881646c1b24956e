"""Tests for multi-tenant serving (repro.tenancy).

The contracts under test:

* **Registry semantics** — ``tenant=None`` resolves the default (or
  sole) tenant, unknown ids raise the typed
  :class:`~repro.errors.UnknownTenantError`, cold tenants attach
  lazily, and ``max_resident`` LRU-detaches — deferred while pinned;
* **Transparency** — an evicting registry is element-identical to one
  that never evicts, across random attach/evict/query interleavings
  (hypothesis), because detach never loses state a loader can't
  rebuild and never fires under a pin;
* **Isolation** — a saturated tenant draws per-tenant 429s
  (``reason="tenant_quota"``) while a cold tenant's latency stays
  bounded, and per-tenant query caches are partitioned;
* **Transport** — tenant routing end to end over HTTP: ``X-Tenant`` /
  ``tenant`` field, 404 with ``unknown_tenant`` + request id on the
  client, per-tenant 429 reason on the client, ``/tenants``;
* **CLI** — ``serve --tenant NAME=PATH`` wiring and the per-tenant
  ``repro stats --data-dir A --data-dir B`` table.
"""

from __future__ import annotations

import asyncio
import io
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.med import MED_TOPICS
from repro.errors import ReproError, ServerOverloadError, UnknownTenantError
from repro.retrieval.engine import LSIRetrieval
from repro.server.client import ServerClient
from repro.server.service import QueryService, ServerConfig
from repro.server.state import ServingState, manager_from_texts
from repro.tenancy.quotas import TenantQuotas
from repro.tenancy.registry import DEFAULT_TENANT, IndexRegistry

from tests.test_server import _ServerThread
from tests.test_store_mmap import (
    assert_same_factors,
    assert_same_rankings,
    pending_fast_update_store,
)

# Three disjoint mini-corpora so cross-tenant routing bugs cannot hide:
# a query against the wrong tenant's index ranks different documents.
TENANT_TEXTS = {
    "alpha": [MED_TOPICS[f"M{i}"] for i in range(1, 7)],
    "beta": [MED_TOPICS[f"M{i}"] for i in range(7, 13)],
    "gamma": [
        "renal blood flow in anesthetized dogs",
        "heart rate and oxygen uptake during exercise",
        "growth hormone in fasting children",
        "spectral analysis of heart rate variability",
        "blood pressure response to postural change",
        "oxygen saturation during sleep apnea episodes",
    ],
}
TENANT_QUERIES = {
    "alpha": "blood pressure age",
    "beta": "cell growth culture",
    "gamma": "heart rate oxygen",
}


def _build_state(tid: str, **backend) -> ServingState:
    # Deterministic (seeded) build: re-attaching a tenant after an LRU
    # detach reconstructs the identical model, which the transparency
    # property below relies on.
    manager = manager_from_texts(TENANT_TEXTS[tid], k=3, scheme="log_entropy")
    manager.distortion_budget = 0.5
    return ServingState.for_manager(manager, **backend)


def _loader(tid: str):
    return lambda: _build_state(tid)


def _registry(tenants=("alpha", "beta", "gamma"), **kwargs) -> IndexRegistry:
    reg = IndexRegistry(**kwargs)
    for tid in tenants:
        reg.register(tid, loader=_loader(tid))
    return reg


def _search(reg: IndexRegistry, tid: str) -> list[tuple[int, float]]:
    with reg.pin(tid) as (resolved, state):
        assert resolved == tid
        engine = LSIRetrieval(state.current().model)
        return engine.search(TENANT_QUERIES[tid], top=5)


# --------------------------------------------------------------------- #
# registry resolution semantics
# --------------------------------------------------------------------- #
def test_single_registry_resolves_none_to_default():
    reg = IndexRegistry.single(_build_state("alpha"))
    tid, state = reg.resolve(None)
    assert tid == DEFAULT_TENANT
    assert state.current().n_documents == len(TENANT_TEXTS["alpha"])
    # The sole tenant also resolves when named explicitly.
    assert reg.resolve(DEFAULT_TENANT)[0] == DEFAULT_TENANT


def test_sole_non_default_tenant_resolves_none():
    reg = _registry(tenants=("alpha",))
    assert reg.resolve(None)[0] == "alpha"


def test_lazy_attach_serves_the_writers_factors(tmp_path):
    # A store-directory tenant attaches through the store's one door, so
    # a seal taken with fast-update batches pending serves the rotated
    # U/Σ the writer scores with (see tests/test_store_mmap.py).
    store, queries = pending_fast_update_store(tmp_path / "store")
    try:
        reg = IndexRegistry()
        reg.register(
            "alpha", loader=lambda: ServingState.open(store.data_dir)
        )
        with reg.pin("alpha") as (_tid, state):
            attached = state.current()
            assert_same_factors(attached.model, store.manager.model)
            assert attached.ann is not None
            assert_same_rankings(
                attached, ServingState.for_store(store).current(), queries
            )
    finally:
        store.close(flush=False)


def test_unknown_tenant_is_typed_lookup_error():
    reg = _registry()
    with pytest.raises(UnknownTenantError) as excinfo:
        reg.resolve("nobody")
    assert excinfo.value.tenant == "nobody"
    assert isinstance(excinfo.value, LookupError)
    assert isinstance(excinfo.value, ReproError)
    # No default tenant + several registered: None is ambiguous.
    with pytest.raises(UnknownTenantError) as excinfo:
        reg.resolve(None)
    assert excinfo.value.tenant is None


def test_register_validates_sources():
    reg = IndexRegistry()
    with pytest.raises(ReproError, match="needs one of"):
        reg.register("a")
    with pytest.raises(ReproError, match="needs one of"):
        reg.register("a", data_dir="/x")  # descriptive only: no source
    with pytest.raises(ReproError, match="non-empty string"):
        reg.register("")
    reg.register("a", loader=_loader("alpha"))
    with pytest.raises(ReproError, match="already registered"):
        reg.register("a", loader=_loader("alpha"))
    with pytest.raises(ReproError, match="not both"):
        reg.register("b", state=_build_state("beta"), loader=_loader("beta"))


# --------------------------------------------------------------------- #
# lazy attach, LRU detach, pin-deferred eviction
# --------------------------------------------------------------------- #
def test_lazy_attach_and_lru_detach_under_cap():
    detached: list[str] = []
    reg = _registry(max_resident=1)
    reg.add_detach_hook(lambda tid, state: detached.append(tid))
    assert reg.resident_states() == {}

    _search(reg, "alpha")
    assert list(reg.resident_states()) == ["alpha"]
    _search(reg, "beta")  # over the cap: alpha is the LRU victim
    assert list(reg.resident_states()) == ["beta"]
    assert detached == ["alpha"]
    # Re-attach counts are visible in describe().
    _search(reg, "alpha")
    assert reg.describe()["alpha"]["attaches"] == 2
    assert detached == ["alpha", "beta"]


def test_detach_deferred_while_pinned():
    detached: list[str] = []
    reg = _registry(max_resident=1)
    reg.add_detach_hook(lambda tid, state: detached.append(tid))
    with reg.pin("alpha"):
        # Attaching beta marks alpha evict-pending but must not detach
        # it under the in-flight pin.
        reg.resolve("beta")
        assert detached == []
        assert reg.describe()["alpha"]["evict_pending"] is True
        assert reg.describe()["alpha"]["resident"] is True
    # Pin dropped → the deferred detach fires.
    assert detached == ["alpha"]
    assert list(reg.resident_states()) == ["beta"]


def test_resolve_rescinds_pending_eviction():
    reg = _registry(max_resident=1)
    with reg.pin("alpha"):
        reg.resolve("beta")  # alpha now evict-pending
        reg.resolve("alpha")  # hot again: the mark is rescinded
    assert reg.describe()["alpha"]["resident"] is True


def test_a_reattached_tenant_is_served_by_its_new_state():
    """An LRU-detached tenant's state is drained whole, and its
    re-attach loads a fresh state whose own scheduler answers."""
    reg = _registry(tenants=("alpha", "beta"), max_resident=1)

    async def main():
        service = QueryService(reg)
        await service.start()
        want = await service.search(
            TENANT_QUERIES["alpha"], top=3, tenant="alpha"
        )
        old = reg.resident_states()["alpha"]
        await service.search(TENANT_QUERIES["beta"], top=3, tenant="beta")
        assert "alpha" not in reg.resident_states()
        # The detach hook drains the evicted state as a task.
        for _ in range(100):
            if old._task is None:
                break
            await asyncio.sleep(0)
        assert old._task is None and old._queue.empty()

        got = await service.search(
            TENANT_QUERIES["alpha"], top=3, tenant="alpha"
        )
        new = reg.resident_states()["alpha"]
        assert new is not old
        assert new._task is not None and old._task is None
        await service.drain()
        return want, got

    want, got = asyncio.run(main())
    assert got["results"] == want["results"]
    assert reg.describe()["alpha"]["attaches"] == 2


def _hosted(argv, monkeypatch):
    """``(what repro serve hosts, its banner)`` for ``argv``: the command
    runs up to the front end, which a recorder stands in for."""
    from repro.cli import main, serving

    seen = {}

    def record(hosted, banner, args, out, **_):
        seen.update(hosted=hosted, banner=banner())
        return 0

    monkeypatch.setattr(serving, "serve_until_signal", record)
    assert main(["--no-obs", *argv], out=io.StringIO()) == 0
    return seen["hosted"], seen["banner"]


def test_query_cache_partitioned_per_tenant(tmp_path, monkeypatch):
    """``serve --tenant`` hosts every named tenant, attached lazily and
    read-only."""
    from repro.store.durable import DurableIndexStore

    flags = []
    for tid in ("alpha", "beta", "gamma"):
        path = tmp_path / tid
        DurableIndexStore.initialize(
            path, manager_from_texts(TENANT_TEXTS[tid], k=3)
        ).close()
        flags += ["--tenant", f"{tid}={path}"]
    reg, banner = _hosted(["serve", *flags], monkeypatch)
    assert banner == "serving 3 tenants (alpha, beta, gamma) lazily"
    for tid in ("alpha", "beta", "gamma"):
        _, state = reg.resolve(tid)
        assert not state.writable


def test_store_tenant_probes_like_serve_store(tmp_path, monkeypatch):
    """``serve DB`` and ``serve --tenant t=DB`` open the store through
    one opener, so a probe request gets the same ranking and the same
    ``ann`` block from both (a tenant once fell back to the exact
    scan)."""
    from repro.store.durable import DurableIndexStore

    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(200)]
    docs = [" ".join(rng.choice(words, 12)) for _ in range(240)]
    path = tmp_path / "x"
    DurableIndexStore.initialize(path, manager_from_texts(docs, k=16)).close()
    single, _ = _hosted(["serve", str(path)], monkeypatch)
    tenants, _ = _hosted(["serve", "--tenant", f"t={path}"], monkeypatch)

    async def ask(hosted, tenant):
        service = QueryService(hosted, ServerConfig())
        await service.start()
        try:
            return await service.search(
                docs[7], top=5, probes=2, tenant=tenant
            )
        finally:
            await service.drain()

    want = asyncio.run(ask(single, None))
    got = asyncio.run(ask(tenants, "t"))
    assert want["ann"]["probes"] == 2
    assert got["ann"] == want["ann"]
    assert got["results"] == want["results"]


# --------------------------------------------------------------------- #
# transparency: evicting registry ≡ never-evicting registry
# --------------------------------------------------------------------- #
@settings(max_examples=20, deadline=None)
@given(
    tenants=st.lists(
        st.sampled_from(sorted(TENANT_TEXTS)), min_size=1, max_size=12
    )
)
def test_evicting_registry_element_identical_to_resident(tenants):
    """Under ``max_resident=1`` every switch of tenant evicts the last
    one and re-attaches the next."""
    evicting = _registry(max_resident=1)
    resident = _registry()  # never evicts: the reference
    for tid in TENANT_TEXTS:
        resident.resolve(tid)
    for tid in tenants:
        assert _search(evicting, tid) == _search(resident, tid), tid
        # The bound holds after every step (no pins are outstanding).
        assert len(evicting.resident_states()) <= 1


# --------------------------------------------------------------------- #
# per-tenant quotas
# --------------------------------------------------------------------- #
def test_quota_share_and_rejection():
    quotas = TenantQuotas(8)
    quotas.ensure(["a", "b"])
    assert quotas.share == 4
    for _ in range(4):
        quotas.admit("a")
    with pytest.raises(ServerOverloadError) as excinfo:
        quotas.admit("a")
    assert excinfo.value.reason == "tenant_quota"
    quotas.admit("b")  # the other tenant's share is untouched
    quotas.release("a")
    quotas.admit("a")  # released slot is reusable
    # A single tenant's share equals the global depth (invisible layer).
    solo = TenantQuotas(8)
    solo.ensure(["only"])
    assert solo.share == 8


def test_a_rejected_request_attaches_no_tenant():
    """Admission comes before the pin: a 429 or a 503 loads no cold
    tenant and evicts no resident one, an unknown tenant is still a 404,
    and evicting a tenant that never served a query has no scheduler to
    drain (nothing raises on the loop)."""
    reg = IndexRegistry(max_resident=1)
    reg.register("hot", loader=_loader("alpha"))
    reg.register("cold", loader=_loader("beta"))
    cold_query = TENANT_QUERIES["beta"]

    async def main():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        service = QueryService(reg, ServerConfig(queue_depth=1))
        await service.start()
        await service.search(TENANT_QUERIES["alpha"], top=2, tenant="hot")
        service.admission.admit()  # the one global slot is taken
        with pytest.raises(UnknownTenantError):
            await service.search(cold_query, top=2, tenant="nobody")
        with pytest.raises(ServerOverloadError) as full:
            await service.search(cold_query, top=2, tenant="cold")
        after_429 = sorted(reg.resident_states())
        service.admission.release()
        service.admission.begin_drain()
        with pytest.raises(ServerOverloadError) as draining:
            await service.search(cold_query, top=2, tenant="cold")
        after_503 = sorted(reg.resident_states())
        reg.resolve("cold")  # attached, never searched ...
        reg.resolve("hot")  # ... and evicted
        for _ in range(3):
            await asyncio.sleep(0)
        await service.drain()
        return full.value.reason, after_429, draining.value.reason, after_503, errors

    full, after_429, draining, after_503, errors = asyncio.run(main())
    assert (full, after_429) == ("queue_full", ["hot"])
    assert (draining, after_503) == ("draining", ["hot"])
    assert errors == []


def test_quota_starvation_cold_tenant_latency_bounded(monkeypatch):
    """A saturated hot tenant cannot starve a cold tenant's requests."""
    original = ServingState._score_batch

    def slow(self, snapshot, batch):
        time.sleep(0.05)
        return original(self, snapshot, batch)

    monkeypatch.setattr(ServingState, "_score_batch", slow)

    reg = IndexRegistry()
    reg.register("hot", state=_build_state("alpha", max_batch=1))
    reg.register("cold", state=_build_state("beta", max_batch=1))

    async def main():
        service = QueryService(reg, ServerConfig(queue_depth=4))
        await service.start()
        hot = [
            asyncio.ensure_future(
                service.search(TENANT_QUERIES["alpha"], top=2, tenant="hot")
            )
            for _ in range(12)
        ]
        await asyncio.sleep(0)  # every hot request reaches admission
        t0 = time.perf_counter()
        cold = await service.search(
            TENANT_QUERIES["beta"], top=2, tenant="cold"
        )
        cold_seconds = time.perf_counter() - t0
        hot_results = await asyncio.gather(*hot, return_exceptions=True)
        await service.drain()
        return cold, cold_seconds, hot_results

    cold, cold_seconds, hot_results = asyncio.run(main())
    assert cold["tenant"] == "cold"
    assert cold["results"]
    rejected = [
        r for r in hot_results if isinstance(r, ServerOverloadError)
    ]
    served = [r for r in hot_results if isinstance(r, dict)]
    # share = queue_depth // 2 = 2: the flood saturates it immediately.
    assert len(served) == 2
    assert len(rejected) == 10
    assert all(r.reason == "tenant_quota" for r in rejected)
    # The cold tenant rode its own batcher + quota share: one slow
    # batch (50ms), not the hot tenant's backlog.
    assert cold_seconds < 2.0


# --------------------------------------------------------------------- #
# HTTP transport end to end
# --------------------------------------------------------------------- #
def test_http_tenant_routing_end_to_end():
    reg = _registry(tenants=("alpha", "beta"))
    engines = {
        tid: LSIRetrieval(_build_state(tid).current().model)
        for tid in ("alpha", "beta")
    }
    with _ServerThread(reg, ServerConfig()) as server:
        client = ServerClient(port=server.port)

        # /tenants before any query: registered but cold.
        info = client.tenants()
        assert set(info["tenants"]) == {"alpha", "beta"}
        assert not any(r["resident"] for r in info["tenants"].values())

        # Per-call tenant routing: each response is element-identical
        # to that tenant's own engine and stamped with the tenant id.
        for tid in ("alpha", "beta"):
            data = client.search(TENANT_QUERIES[tid], top=3, tenant=tid)
            assert data["tenant"] == tid
            got = [(int(j), float(s)) for j, s, _ in data["results"]]
            want = engines[tid].search(TENANT_QUERIES[tid], top=3)
            assert [j for j, _ in got] == [j for j, _ in want]
            assert np.allclose(
                [c for _, c in got], [c for _, c in want], atol=1e-12
            )

        # A client-default tenant rides X-Tenant on every request.
        with ServerClient(port=server.port, tenant="beta") as bound:
            assert bound.search("growth", top=1)["tenant"] == "beta"

        # The body field overrides the header (checked via raw payload).
        data = client._request(
            "POST", "/search",
            {"query": "growth", "top": 1, "tenant": "alpha"},
            tenant="beta",
        )
        assert data["tenant"] == "alpha"

        # Unknown tenant → typed 404 carrying the request id.
        with pytest.raises(UnknownTenantError) as excinfo:
            client.search("x", top=1, tenant="ghost", request_id="rid-404")
        assert excinfo.value.tenant == "ghost"
        assert excinfo.value.request_id == "rid-404"
        # Ambiguous (no tenant named, none is "default") → same error.
        with pytest.raises(UnknownTenantError):
            client.search("x", top=1)

        # Per-tenant 429: pre-occupy alpha's whole share, then watch
        # the typed reason surface on the client while beta still runs.
        service = server.service
        service.quotas.ensure(service.registry.tenant_ids)
        for _ in range(service.quotas.share):
            service.quotas.admit("alpha")
        try:
            with pytest.raises(ServerOverloadError) as excinfo:
                client.search("x", top=1, tenant="alpha")
            assert excinfo.value.reason == "tenant_quota"
            assert excinfo.value.request_id
            assert client.search("growth", top=1, tenant="beta")["results"]
        finally:
            for _ in range(service.quotas.share):
                service.quotas.release("alpha")

        # /healthz grows a tenants block in multi-tenant mode.
        health = client.healthz()
        assert set(health["tenants"]) == {"alpha", "beta"}


def test_http_single_tenant_shape_unchanged():
    """Single-tenant responses keep their exact legacy shape."""
    state = _build_state("alpha")
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        data = client.search(TENANT_QUERIES["alpha"], top=2)
        assert "tenant" not in data
        health = client.healthz()
        assert "tenants" not in health
        # Naming the default tenant explicitly works and is echoed.
        data = client.search(
            TENANT_QUERIES["alpha"], top=2, tenant=DEFAULT_TENANT
        )
        assert data["tenant"] == DEFAULT_TENANT


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #
def test_cli_parses_tenant_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--tenant", "a=/tmp/a", "--tenant", "b=/tmp/b",
         "--max-resident", "2"]
    )
    assert args.tenants == ["a=/tmp/a", "b=/tmp/b"]
    assert args.max_resident == 2
    args = build_parser().parse_args(
        ["cluster", "serve", "--tenants", "t.json", "--queue-depth", "64"]
    )
    assert args.data_dir is None and args.queue_depth == 64
    args = build_parser().parse_args(
        ["cluster", "worker", "--data-dir", "d", "--shard", "0",
         "--plan", "{}", "--tenant", "acme"]
    )
    assert args.tenant == "acme"


def test_cli_tenant_spec_validation(tmp_path):
    """Both serve commands' tenant maps — ``--tenant`` flags and a JSON
    file — go through one builder and its duplicate, empty and
    existence checks."""
    import pathlib

    from repro.cli.cluster import read_tenant_map
    from repro.cli.serving import parse_tenant_specs, tenant_registry

    assert parse_tenant_specs(["a=/x", "b=/y"]) == [
        ("a", pathlib.Path("/x")),
        ("b", pathlib.Path("/y")),
    ]
    with pytest.raises(ReproError, match="NAME=PATH"):
        parse_tenant_specs(["nodir"])

    def build(pairs):
        return tenant_registry(
            pairs, lambda name, path: (name, path), max_resident=None
        )

    store = tmp_path / "store"
    store.mkdir()
    mapping = tmp_path / "tenants.json"
    with pytest.raises(ReproError, match="duplicate"):
        build(parse_tenant_specs([f"a={store}", f"a={store}"]))
    mapping.write_text(f'{{"a": "{store}", "a": "{store}"}}')
    with pytest.raises(ReproError, match="duplicate"):
        build(read_tenant_map(mapping))
    mapping.write_text("{}")
    with pytest.raises(ReproError, match="no tenant"):
        build(read_tenant_map(mapping))
    with pytest.raises(ReproError, match="does not exist"):
        build(parse_tenant_specs([f"a={tmp_path / 'missing'}"]))
    mapping.write_text(f'{{"a": "{store}", "b": "{store}"}}')
    reg = build(read_tenant_map(mapping))
    assert reg.tenant_ids == ["a", "b"]
    assert reg.describe()["a"]["data_dir"] == str(store)
    assert reg.resolve("b") == ("b", ("b", store))


def test_cli_cluster_serve_requires_one_source(tmp_path):
    from repro.cli import main as cli_main

    err = io.StringIO()
    # Neither --data-dir nor --tenants.
    assert cli_main(["--no-obs", "cluster", "serve"], out=err) == 1
    # Both at once.
    tenants = tmp_path / "tenants.json"
    tenants.write_text("{}", encoding="utf-8")
    assert (
        cli_main(
            ["--no-obs", "cluster", "serve", "--data-dir", str(tmp_path),
             "--tenants", str(tenants)],
            out=err,
        )
        == 1
    )
    # An empty or malformed map is refused before anything spawns.
    assert (
        cli_main(
            ["--no-obs", "cluster", "serve", "--tenants", str(tenants)],
            out=err,
        )
        == 1
    )
    tenants.write_text("not json", encoding="utf-8")
    assert (
        cli_main(
            ["--no-obs", "cluster", "serve", "--tenants", str(tenants)],
            out=err,
        )
        == 1
    )


def _seed_store(tmp_path, name: str, texts: list[str]):
    from repro.store.durable import DurableIndexStore

    data_dir = tmp_path / name
    ids = [f"{name}-{i}" for i in range(len(texts))]
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=3)
    )
    store.close(flush=False)
    return data_dir


def test_cli_stats_per_tenant_table(tmp_path):
    from repro.cli import main as cli_main

    dir_a = _seed_store(tmp_path, "acme", TENANT_TEXTS["alpha"])
    dir_b = _seed_store(tmp_path, "globex", TENANT_TEXTS["beta"])

    out = io.StringIO()
    code = cli_main(
        ["--no-obs", "stats", "--data-dir", str(dir_a),
         "--data-dir", str(dir_b)],
        out=out,
    )
    assert code == 0
    text = out.getvalue()
    assert "tenant" in text and "acme" in text and "globex" in text

    out = io.StringIO()
    code = cli_main(
        ["--no-obs", "stats", "--json", "--data-dir", str(dir_a),
         "--data-dir", str(dir_b)],
        out=out,
    )
    assert code == 0
    blob = json.loads(out.getvalue())
    assert set(blob["tenants"]) == {"acme", "globex"}
    assert (
        blob["tenants"]["acme"]["n_documents"]
        == len(TENANT_TEXTS["alpha"])
    )

    # One --data-dir keeps the merged-snapshot behaviour (store gauges).
    out = io.StringIO()
    code = cli_main(
        ["--no-obs", "stats", "--data-dir", str(dir_a)], out=out
    )
    assert code == 0
    assert "observability state" in out.getvalue()
