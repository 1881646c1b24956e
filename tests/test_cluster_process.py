"""Integration tests: real worker subprocesses under ClusterService.

One store is seeded per module; the cluster test drives the full
lifecycle — spawn, exact parity, SIGKILL → partial degradation,
supervisor restart → recovered parity, drain — in a single pass,
because each phase is the next one's precondition.  The CLI-level
equivalent (HTTP front end, ``repro cluster serve`` subprocess) lives
in ``benchmarks/cluster_smoke.py``.
"""

import asyncio
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.cluster.plan import ShardPlan
from repro.cluster.service import ClusterConfig, ClusterService
from repro.cluster.supervisor import SupervisorConfig
from repro.cluster.worker import run_worker
from repro.core.query import batch_project_queries
from repro.errors import ServerOverloadError
from repro.obs.metrics import registry
from repro.server.service import QueryService, ServerConfig
from repro.server.state import manager_from_texts
from repro.store.durable import DurableIndexStore
from repro.store.mmap_io import open_latest_model

from tests.test_serving_scan import whole_model_search

SHARDS = 2
TOP = 6


@pytest.fixture(scope="module")
def seeded_store(tmp_path_factory):
    rng = np.random.default_rng(31)
    vocab = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(vocab, size=15)) for _ in range(41)]
    ids = [f"D{i}" for i in range(len(texts))]
    data_dir = tmp_path_factory.mktemp("cluster_store") / "store"
    store = DurableIndexStore.initialize(data_dir, manager_from_texts(texts, ids, k=10))
    store.close(flush=False)
    return data_dir, texts


def _pairs(result_rows):
    return [(int(i), float(s)) for i, s in result_rows]


def test_cluster_lifecycle_parity_kill_recover_drain(seeded_store):
    data_dir, texts = seeded_store
    model = open_latest_model(data_dir)
    queries = texts[:4]
    Q = batch_project_queries(model, queries)
    flat = whole_model_search(model, Q, TOP)

    async def main():
        service = ClusterService(
            data_dir,
            ClusterConfig(
                workers=SHARDS,
                supervisor=SupervisorConfig(
                    heartbeat_interval=0.2,
                    backoff_base=1.0,  # wide enough to observe the gap
                    backoff_cap=1.0,
                ),
            ),
        )

        async def scatter():
            """The whole batch through one scatter of the fleet's router."""
            return await service.router.search_batch(
                Q * model.s, top=TOP, plan=service.plan
            )

        await service.start()
        try:
            # Phase 1: all live → element-identical to the whole model.
            health = service.healthz()
            assert health["status"] == "ok"
            assert health["workers_live"] == SHARDS
            result = await scatter()
            assert result.partial is False
            assert result.results == flat

            # The per-request path agrees too, query by query.
            single, _ = await service.search(queries[0], top=TOP)
            assert single["partial"] is False
            assert _pairs(
                [(i, s) for i, s, _ in single["results"]]
            ) == flat[0]
            doc_ids = [d for _, _, d in single["results"]]
            assert doc_ids == [model.doc_ids[i] for i, _ in flat[0]]

            # Phase 2: SIGKILL one worker → partial with its exact range.
            victim = 1
            pid = service.supervisor.describe()[victim]["pid"]
            os.kill(pid, signal.SIGKILL)
            lo, hi = service.plan.shard(victim).as_pair()
            deadline = time.monotonic() + 15
            degraded = None
            while time.monotonic() < deadline:
                candidate = await scatter()
                if candidate.partial:
                    degraded = candidate
                    break
                await asyncio.sleep(0.05)
            assert degraded is not None, "never observed a partial response"
            assert degraded.missing == [(lo, hi)]
            full = whole_model_search(model, Q, model.n_documents)
            for qi, merged in enumerate(degraded.results):
                survivors = [p for p in full[qi] if not lo <= p[0] < hi]
                assert merged == survivors[:TOP]
            assert service.healthz()["status"] == "degraded"

            # Phase 3: the supervisor restarts it → full parity again.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if service.healthz()["workers_live"] == SHARDS:
                    break
                await asyncio.sleep(0.1)
            assert service.healthz()["workers_live"] == SHARDS
            restored = await scatter()
            assert restored.partial is False
            assert restored.results == flat
            assert service.supervisor.describe()[victim]["restarts"] == 1
        finally:
            # Phase 4: drain stops every worker process.
            await service.drain()
        for row in service.supervisor.describe():
            assert row["state"] == "draining"
        assert service.healthz()["draining"] is True

    asyncio.run(main())


def test_cluster_add_refused(seeded_store):
    data_dir, _ = seeded_store
    from repro.errors import ReproError

    async def main():
        service = ClusterService(data_dir, ClusterConfig(workers=SHARDS))
        # add() is refused before any worker even exists.
        with pytest.raises(ReproError, match="read-only"):
            await service.add(["new doc"])

    asyncio.run(main())


# --------------------------------------------------------------------- #
# a fleet behind the front end: the same admission bracket as in process
# --------------------------------------------------------------------- #
def test_single_tenant_fleet_admission_drain_and_request_metrics(seeded_store):
    data_dir, texts = seeded_store
    registry.reset("server.")

    async def main():
        fleet = ClusterService(data_dir, ClusterConfig(workers=SHARDS))
        service = QueryService(fleet, ServerConfig(queue_depth=1))
        await service.start()
        try:
            # Hold the first scatter in flight on an event (no sleeps):
            # whatever arrives meanwhile finds the one slot taken.
            entered, release = asyncio.Event(), asyncio.Event()
            scatter = fleet.router.search_batch

            async def held(*args, **kwargs):
                entered.set()
                await release.wait()
                return await scatter(*args, **kwargs)

            fleet.router.search_batch = held
            first = asyncio.ensure_future(service.search(texts[0], top=TOP))
            await asyncio.wait_for(entered.wait(), timeout=30)
            assert service.healthz()["queue_depth"] == 1
            with pytest.raises(ServerOverloadError) as excinfo:
                await service.search(texts[1], top=TOP)
            assert excinfo.value.reason == "queue_full"
            release.set()
            reply = await asyncio.wait_for(first, timeout=30)
            assert reply["partial"] is False
            assert registry.counter("server.requests_total") == 2
            assert registry.counter("server.rejected_queue_full") == 1
            assert registry.histogram("server.request_seconds").count == 1
        finally:
            await service.drain()
        # Draining is the front end's latch: new work is refused (503
        # over HTTP) instead of scattering at reaped workers.
        with pytest.raises(ServerOverloadError) as excinfo:
            await service.search(texts[0], top=TOP)
        assert excinfo.value.reason == "draining"
        assert service.healthz()["status"] == "draining"

    asyncio.run(main())


# --------------------------------------------------------------------- #
# observability tier: federated stats, distributed trace, slow-query log
# --------------------------------------------------------------------- #
def test_cluster_observability_trace_metrics_slowlog(
    seeded_store, tmp_path, monkeypatch
):
    data_dir, texts = seeded_store
    from repro.obs.trace_context import TraceContext, trace_scope
    from repro.obs.tracing import enable_tracing
    from tests.test_obs import clear_spans

    # Worker processes inherit the injected delay, so every scatter is
    # genuinely slow — the slow-query log must catch it with per-shard
    # evidence rather than needing a microscopic threshold.
    monkeypatch.setenv("REPRO_WORKER_INJECT_DELAY_MS", "40")
    slowlog_path = tmp_path / "slow.jsonl"
    prev = enable_tracing(True)
    clear_spans()

    async def main():
        fleet = ClusterService(data_dir, ClusterConfig(workers=SHARDS))
        service = QueryService(
            fleet,
            ServerConfig(slow_ms=10.0, slowlog_path=str(slowlog_path)),
        )
        await service.start()
        try:
            with trace_scope(TraceContext(trace_id="cluster-trace-1")):
                response = await service.search(texts[0], top=TOP)
            assert response["partial"] is False

            # stats wire op: every live worker ships its registry.
            worker_snaps = await fleet.router.fetch_stats()
            assert sorted(worker_snaps) == list(range(SHARDS))
            for snap in worker_snaps.values():
                # The score span feeds the worker's latency histogram.
                assert snap["histograms"]["cluster.worker.score"]["count"] >= 1

            # Federated JSON keeps the flat shape, workers prefixed.
            metrics = await service.metrics()
            assert set(metrics) == {"counters", "gauges", "histograms"}
            for sid in range(SHARDS):
                assert (
                    f"shard.{sid}.cluster.worker.score"
                    in metrics["histograms"]
                )

            # Prometheus exposition: per-worker labels, one TYPE/family.
            text = await service.metrics_prom()
            assert 'worker="router"' in text
            for sid in range(SHARDS):
                assert f'worker="{sid}"' in text
            type_lines = [
                line for line in text.splitlines()
                if line.startswith("# TYPE ")
            ]
            assert len(type_lines) == len(set(type_lines))

            # One reassembled distributed trace: the router's scatter
            # span plus each worker's score span, all sharing the
            # ingress trace id, workers hanging under the scatter.
            trace = await service.trace("cluster-trace-1")
            assert trace["trace_id"] == "cluster-trace-1"
            assert trace["workers"] == [str(s) for s in range(SHARDS)]
            by_name = {}
            for record in trace["spans"]:
                by_name.setdefault(record["name"], []).append(record)
            (scatter,) = by_name["cluster.scatter"]
            assert scatter["worker"] == "router"
            assert scatter["trace_id"] == "cluster-trace-1"
            score_spans = by_name["cluster.worker.score"]
            assert {s["worker"] for s in score_spans} == {
                str(s) for s in range(SHARDS)
            }
            for record in score_spans:
                assert record["trace_id"] == "cluster-trace-1"
                assert record["parent_id"] == scatter["span_id"]
                assert record["duration"] >= 0.030  # injected delay

            # Slow-query log: per-shard timings and trace evidence.
            slow = service.slowlog.recent()
            assert slow, "40ms injected delay must cross the 10ms bar"
            entry = slow[-1]
            assert entry["trace_id"] == "cluster-trace-1"
            assert entry["duration_ms"] >= 30.0
            assert sorted(entry["shard_timings"]) == [
                str(s) for s in range(SHARDS)
            ]
            for ms in entry["shard_timings"].values():
                assert ms >= 30.0
            assert service.stats()["slow_queries"]
            assert service.healthz()["slowlog"]["records"] >= 1
        finally:
            await service.drain()

    try:
        asyncio.run(main())
        assert slowlog_path.exists()
        lines = slowlog_path.read_text().strip().splitlines()
        assert lines and '"cluster-trace-1"' in lines[-1]
    finally:
        enable_tracing(prev)
        clear_spans()


# --------------------------------------------------------------------- #
# worker entry point: plan-skew refusal (no sockets, no subprocesses)
# --------------------------------------------------------------------- #
def test_run_worker_refuses_plan_skew(seeded_store, capsys):
    data_dir, _ = seeded_store
    model = open_latest_model(data_dir)

    # Wrong epoch stamp.
    plan = ShardPlan.compute(model.n_documents, 2, epoch=99)
    assert run_worker(data_dir, plan.to_json(), 0) == 1
    assert "epoch" in capsys.readouterr().err

    # Wrong checkpoint stamp.
    plan = ShardPlan.compute(
        model.n_documents, 2, epoch=0, checkpoint="ckpt-99999999"
    )
    assert run_worker(data_dir, plan.to_json(), 0) == 1
    assert "checkpoint" in capsys.readouterr().err

    # Wrong document count.
    plan = ShardPlan.compute(model.n_documents + 5, 2, epoch=0)
    assert run_worker(data_dir, plan.to_json(), 0) == 1
    assert "documents" in capsys.readouterr().err

    # Non-canonical plan bytes.
    plan = ShardPlan.compute(model.n_documents, 2, epoch=0)
    assert run_worker(data_dir, plan.to_json() + " ", 0) == 1
    assert "canonical" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# startup error paths, each in a fresh ``python -m repro`` process: the
# commands import what they run, so an import moved out of a module's
# top level must not change an exit code or a message
# --------------------------------------------------------------------- #
SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def _repro(*argv) -> tuple[int, str]:
    """Exit code and stderr of ``python -m repro --no-obs ARGV``."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", "--no-obs", *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stderr


def test_cluster_worker_command_refuses_a_non_canonical_plan(seeded_store):
    data_dir, _ = seeded_store
    model = open_latest_model(data_dir)
    plan = ShardPlan.compute(model.n_documents, 2, epoch=0).to_json() + " "
    code, err = _repro(
        "cluster", "worker", "--data-dir", data_dir, "--shard", 0,
        "--plan", plan,
    )
    assert code == 1
    assert err == (
        "error: shard plan is not in canonical form — router and worker "
        "disagree byte-for-byte\n"
    )


def test_both_serve_commands_refuse_a_store_with_no_checkpoint(
    seeded_store, tmp_path
):
    """A store whose checkpoints are gone (its WAL left) is refused the
    same way by the single-node writer and by the fleet."""
    data_dir = tmp_path / "store"
    shutil.copytree(seeded_store[0], data_dir)
    checkpoints = data_dir / "checkpoints"
    shutil.rmtree(checkpoints)
    checkpoints.mkdir()
    assert DurableIndexStore.exists(data_dir)  # the WAL is still there
    want = f"error: no valid checkpoint under {checkpoints}\n"
    assert _repro("serve", "--data-dir", data_dir, "--port", 0) == (1, want)
    assert _repro(
        "cluster", "serve", "--data-dir", data_dir, "--workers", 2,
        "--port", 0,
    ) == (1, want)


@pytest.mark.parametrize("writer", ["--writable", "--standby"])
def test_a_multi_tenant_fleet_refuses_a_writer(seeded_store, tmp_path, writer):
    tenants = tmp_path / "tenants.json"
    tenants.write_text(json.dumps({"alpha": str(seeded_store[0])}))
    code, err = _repro(
        "cluster", "serve", "--tenants", tenants, writer, "--port", 0
    )
    assert code == 1
    assert err == (
        "error: multi-tenant cluster serving is read-only: --writable/"
        "--standby own one store lock and one WAL each — run the writer "
        "per tenant behind its own front end\n"
    )
