"""End-to-end smoke test for ``python -m repro cluster serve``.

Boots the real cluster — HTTP front end, scatter-gather router, and
three shard worker *subprocesses* over one durable-store checkpoint —
and checks the acceptance criteria that only hold across process
boundaries:

* ``/search`` responses are element-identical to the in-process
  whole-model ``EpochSnapshot.search`` over the same checkpoint;
* probe-bounded (``probes``) responses are element-identical to an
  in-process probe of the same checkpoint quantizer over the same
  shard slices, and probing every cell reproduces the exact scan;
* SIGKILL-ing one worker degrades to ``partial=true`` with exactly
  that worker's ``[lo, hi)`` row range listed as missing — the other
  shards' rows stay exact;
* the supervisor restarts the dead worker and full parity returns;
* a traced ``/search`` (explicit ``X-Request-Id``) yields **one**
  cluster-wide trace at ``/trace?id=``: the router's ingress and
  scatter spans plus every worker's scoring span, all sharing the
  ingress trace id — exported as a JSONL artifact;
* ``/metrics?format=prom`` renders valid Prometheus exposition (no
  duplicate or illegal family names) with per-worker labels, while
  plain ``/metrics`` keeps the flat JSON shape;
* a second tiny cluster with an injected worker delay pushes a query
  over ``--slow-ms``: it must land in the ``--slowlog`` JSONL with
  per-shard timings (uploaded as a CI artifact); the same cluster runs
  with ``--queue-depth 2``, so a six-deep flood draws ``queue_full``
  429s — a single-tenant fleet sits behind the same admission bound as
  every other deployment of the one front end;
* with ``--replication 2`` (6 workers, 3 ranges), SIGKILL-ing one
  replica mid-stream costs **nothing**: every response stays
  ``partial=false`` and element-identical while healthz shows the
  range at 1/2 healthy replicas — failover, not degradation — until
  the supervisor restores 2/2;
* SIGKILL-ing a ``--writable`` primary's whole process group promotes
  a ``--standby`` cluster on the same store: it adopts the lock,
  replays the WAL tail, and serves every previously acked record —
  zero durable-acked documents lost — with the promotion timeline
  landing in a JSONL artifact;
* SIGTERM drains cleanly — the process prints ``drained cleanly`` and
  exits 0;
* a two-tenant front end (``--tenants tenants.json``) routes by
  ``X-Tenant``: interleaved queries stay element-identical to each
  store's own in-process reference, the second tenant's fleet spawns
  lazily on its first query, both tenants' slow queries land in the
  one ``--slowlog`` file with their ``tenant`` on each record, a flood
  past one tenant's admission share draws per-tenant 429s while the
  other tenant still completes, a
  SIGKILL'd worker degrades only its own tenant, and with
  ``--max-resident 1`` the LRU tenant detaches (drains) and re-attaches
  with exact parity.

Run directly (CI does)::

    PYTHONPATH=src:benchmarks python benchmarks/cluster_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.core.query import project_query
from repro.errors import ServerOverloadError, UnknownTenantError
from repro.obs.slowlog import read_slowlog
from repro.obs.trace_context import export_trace_jsonl
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.server.client import ServerClient
from repro.server.state import EpochSnapshot, manager_from_texts
from repro.serving.index import scaled_rows
from repro.store.durable import DurableIndexStore
from repro.store.mmap_io import open_latest_ann, open_latest_model

K = 10
SHARDS = 3
TOP = 10
RESTART_BACKOFF = 3.0  # wide enough to observe the degraded window


def _corpus() -> list[str]:
    rng = np.random.default_rng(43)
    vocab = [f"w{i}" for i in range(50)]
    return [" ".join(rng.choice(vocab, size=15)) for _ in range(61)]


def _whole(model, q: str, top: int) -> list[tuple[int, float]]:
    """The whole-model snapshot's ranking of ``q``: the reference every
    fleet answer must equal, whatever its row ranges."""
    snapshot = EpochSnapshot(0, model)
    return snapshot.search(snapshot.scale(snapshot.project(q)), top=top)[0][0]


def _seed_store(data_dir: str, texts: list[str]) -> None:
    ids = [f"D{i}" for i in range(len(texts))]
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=K)
    )
    store.close(flush=False)


def _start_cluster(
    data_dir: str | None,
    *extra_args: str,
    env_extra: dict[str, str] | None = None,
    new_session: bool = False,
) -> tuple[subprocess.Popen, int]:
    """Launch ``repro cluster serve``; return (proc, http port).

    ``data_dir=None`` serves a multi-tenant front end — pass
    ``"--tenants", path`` through ``extra_args`` instead.
    ``new_session=True`` puts the front end and its spawned workers in
    their own process group, so ``os.killpg`` can SIGKILL the whole
    cluster at once (the primary-death scenario)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    env.update(env_extra or {})
    store_args = (
        ["--data-dir", data_dir] if data_dir is not None else []
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--no-obs", "cluster", "serve",
            *store_args, "--workers", str(SHARDS),
            "--port", "0", "--heartbeat-interval", "0.25",
            "--restart-backoff", str(RESTART_BACKOFF),
            "--restart-backoff-cap", str(RESTART_BACKOFF),
            *extra_args,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env, start_new_session=new_session,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"cluster exited before its banner (rc={proc.poll()})"
            )
        line = line.strip()
        print(f"  | {line}")
        if line.startswith("cluster serving ") and "on http://" in line:
            return proc, int(line.rsplit(":", 1)[1])
    proc.kill()
    raise SystemExit("cluster banner never appeared")


def _search_pairs(
    client: ServerClient, query: str, probes: int | None = None
) -> tuple[dict, list]:
    data = client.search(query, top=TOP, probes=probes)
    return data, [(int(j), float(s)) for j, s, _ in data["results"]]


def _flood(
    port: int, query: str, n: int, tenant: str | None = None
) -> tuple[list[threading.Thread], list[Exception], list[int]]:
    """Start ``n`` concurrent searches, each on its own connection.

    Returns ``(threads, rejected, completed)``: join the threads, then
    read the 429s the flood drew and how many requests were served."""
    rejected: list[Exception] = []
    completed: list[int] = []

    def hammer() -> None:
        with ServerClient(port=port, timeout=60) as c:
            try:
                c.search(query, top=TOP, tenant=tenant)
                completed.append(1)
            except ServerOverloadError as exc:
                rejected.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(n)]
    for t in threads:
        t.start()
    return threads, rejected, completed


_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r" -?[0-9].*$"
)


def _validate_prometheus(text: str) -> int:
    """Assert the exposition parses: unique legal families, sample lines."""
    declared: set[str] = set()
    samples = 0
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            name, kind = line[len("# TYPE "):].rsplit(" ", 1)
            assert kind in {"counter", "gauge", "summary"}, line
            assert name not in declared, f"duplicate family: {name}"
            declared.add(name)
        else:
            assert _PROM_SAMPLE.match(line), f"unparseable: {line!r}"
            samples += 1
    assert declared, "empty exposition"
    return samples


def _observability_phase(client: ServerClient) -> None:
    """One traced query → one cluster-wide trace; valid Prometheus text."""
    rid = "smoke-trace-1"
    data = client.search("w1 w2 w3", top=TOP, request_id=rid)
    assert data["partial"] is False, data
    assert client.last_request_id == rid, client.last_request_id

    trace = client.trace(rid)
    assert trace["trace_id"] == rid, trace
    assert trace["workers"] == [str(s) for s in range(SHARDS)], trace
    spans = trace["spans"]
    assert all(
        s["trace_id"] == rid or s.get("attrs", {}).get("trace_ids")
        for s in spans
    ), spans
    by_name: dict[str, list[dict]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(record)
    # Ingress and scatter spans come from the router process...
    (ingress,) = by_name["http.request"]
    assert ingress["worker"] == "router", ingress
    assert ingress["attrs"]["request_id"] == rid, ingress
    (scatter,) = by_name["cluster.scatter"]
    assert scatter["worker"] == "router", scatter
    # ...and every shard worker contributes its scoring span, parented
    # under the router's scatter span across the process boundary.
    score_spans = by_name["cluster.worker.score"]
    assert {s["worker"] for s in score_spans} == {
        str(s) for s in range(SHARDS)
    }, score_spans
    for record in score_spans:
        assert record["parent_id"] == scatter["span_id"], record
    export_trace_jsonl("SMOKE_cluster_trace.jsonl", spans)
    print(
        f"trace: one cluster-wide trace ({len(spans)} spans: ingress + "
        f"scatter + {len(score_spans)} worker spans share trace_id={rid})"
    )

    # The id is echoed on error responses too.
    try:
        client._request("GET", "/nope", request_id="smoke-err-1")
        raise AssertionError("404 expected")
    except Exception as exc:  # noqa: BLE001 — mapped ReproError
        assert getattr(exc, "request_id", None) == "smoke-err-1", exc

    # Prometheus exposition federates every worker; JSON stays flat.
    prom = client.metrics_prom()
    samples = _validate_prometheus(prom)
    for label in ["router"] + [str(s) for s in range(SHARDS)]:
        assert f'worker="{label}"' in prom, label
    metrics = client.metrics()
    assert set(metrics) == {"counters", "gauges", "histograms"}, metrics
    for sid in range(SHARDS):
        assert f"shard.{sid}.cluster.worker.score" in metrics["histograms"]
    print(
        f"metrics: /metrics?format=prom valid ({samples} samples, "
        f"per-worker labels), flat JSON federates {SHARDS} workers"
    )


def _slowlog_phase(data_dir: str) -> None:
    """A delayed worker pushes queries over --slow-ms → JSONL evidence;
    a flood past --queue-depth draws queue_full 429s."""
    slowlog = os.path.abspath("SMOKE_cluster_slowlog.jsonl")
    if os.path.exists(slowlog):
        os.unlink(slowlog)
    proc, port = _start_cluster(
        data_dir,
        "--slow-ms", "25", "--slowlog", slowlog, "--queue-depth", "2",
        env_extra={"REPRO_WORKER_INJECT_DELAY_MS": "60"},
    )
    try:
        client = ServerClient(port=port)
        data = client.search("w1 w2 w3", top=TOP, request_id="smoke-slow-1")
        assert data["partial"] is False, data
        entries = read_slowlog(slowlog)
        assert entries, "60ms injected delay must cross the 25ms threshold"
        entry = entries[-1]
        assert entry["trace_id"] == "smoke-slow-1", entry
        assert entry["duration_ms"] >= 25.0, entry
        timings = entry["shard_timings"]
        assert sorted(timings) == [str(s) for s in range(SHARDS)], entry
        assert all(ms >= 50.0 for ms in timings.values()), timings
        health = client.healthz()
        assert health["slowlog"]["records"] >= 1, health["slowlog"]
        assert health["queue_capacity"] == 2, health

        # Every scatter takes >= 60 ms, so six requests at once find
        # the two admission slots taken: the rest bounce as 429s.
        threads, rejected, completed = _flood(port, "w1 w2 w3", 6)
        for t in threads:
            t.join()
        assert rejected, "no 429 from a 6-deep flood at --queue-depth 2"
        assert all(
            getattr(e, "reason", None) == "queue_full" for e in rejected
        ), [getattr(e, "reason", None) for e in rejected]
        assert completed, "the admitted requests must still be served"
        print(
            f"admission: 6-deep flood at --queue-depth 2 -> "
            f"{len(rejected)} 429(s) (reason=queue_full), "
            f"{len(completed)} served"
        )
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=45)
        assert proc.returncode == 0, (proc.returncode, out)
        print(
            f"slowlog: {len(entries)} record(s) with per-shard timings "
            f"({', '.join(f's{k}={v:.0f}ms' for k, v in sorted(timings.items()))})"
            f" -> {os.path.basename(slowlog)}"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)


def _replication_phase(data_dir: str, queries: list[str], expected) -> None:
    """R=2: SIGKILL one replica mid-stream → zero partial responses."""
    proc, port = _start_cluster(
        data_dir, "--workers", str(2 * SHARDS), "--replication", "2"
    )
    try:
        client = ServerClient(port=port)
        health = client.healthz()
        assert health["replication"] == 2, health
        assert health["n_workers"] == 2 * SHARDS, health
        assert health["n_shards"] == SHARDS, health
        assert all(
            r["replicas_healthy"] == 2 for r in health["ranges"]
        ), health["ranges"]

        # Kill replica 0 of range 1 and stream queries straight through
        # the death + restart window: with a live sibling, not one
        # response may degrade — failover is the contract, partial is
        # the bug.
        victim = next(
            w for w in health["workers"]
            if w["shard"] == 1 and w["replica"] == 0
        )
        os.kill(victim["pid"], signal.SIGKILL)
        checked = partials = 0
        one_replica_seen = recovered = False
        deadline = time.monotonic() + 40
        while time.monotonic() < deadline:
            q = queries[checked % len(queries)]
            data, got = _search_pairs(client, q)
            checked += 1
            partials += int(data["partial"])
            assert got == expected[q], (q, got, expected[q])
            r1 = next(
                r for r in client.healthz()["ranges"] if r["shard"] == 1
            )
            if r1["replicas_healthy"] == 1:
                one_replica_seen = True
                # One dead replica of a covered range is NOT degraded.
                assert client.healthz()["status"] == "ok"
            if one_replica_seen and r1["replicas_healthy"] == 2:
                recovered = True
                break
            time.sleep(0.05)
        assert partials == 0, f"{partials}/{checked} responses degraded"
        assert one_replica_seen, "never observed the 1/2-replica window"
        assert recovered, "replica never restarted to 2/2"

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=45)
        assert proc.returncode == 0, (proc.returncode, out)
        print(
            f"replication: R=2 SIGKILL'd worker {victim['worker']} "
            f"(shard 1 replica 0) -> {checked} streamed responses, "
            f"0 partial, all element-identical; range healed 1/2 -> 2/2"
        )
    finally:
        _reap(proc)


def _promotion_phase(tmp: str, texts: list[str]) -> None:
    """SIGKILL the writable primary → the standby adopts, zero loss."""
    data_dir = os.path.join(tmp, "store-ha")
    _seed_store(data_dir, texts)
    promo = os.path.abspath("SMOKE_cluster_promotion.jsonl")
    if os.path.exists(promo):
        os.unlink(promo)

    # The primary: a writable cluster in its own process group.  Seal
    # on every 4th record with the age trigger OFF, so the final three
    # acked documents are WAL-only when it dies — the exact window a
    # naive failover loses.
    primary, pport = _start_cluster(
        data_dir, "--writable", "--seal-every", "4", "--seal-interval",
        "0", new_session=True,
    )
    standby = None
    try:
        # The standby: same store directory, read-only until promotion.
        standby, sport = _start_cluster(
            data_dir, "--standby", "--standby-poll", "0.2",
            "--promotion-log", promo,
        )
        sclient = ServerClient(port=sport)
        assert sclient.healthz()["standby"]["promoted"] is False
        epoch0 = sclient.healthz()["epoch"]

        pclient = ServerClient(port=pport)
        acked = []
        for i in range(7):
            ack = pclient.add([f"w1 w5 w9 w{10 + i} w{20 + i}"], [f"HA{i}"])
            assert ack["durable"] is True, ack
            acked.append(f"HA{i}")

        # The standby follows the primary's seal (records 1-4) while
        # records 5-7 stay WAL-only.
        deadline = time.monotonic() + 45
        while sclient.healthz()["epoch"] == epoch0:
            assert time.monotonic() < deadline, "standby never followed"
            time.sleep(0.1)
        assert sclient.healthz()["standby"]["promoted"] is False

        # Primary dies: the whole process group, no drain, no flush.
        os.killpg(primary.pid, signal.SIGKILL)
        primary.communicate(timeout=15)

        deadline = time.monotonic() + 90
        while True:
            h = sclient.healthz()
            if (
                h["standby"]["promoted"]
                and h["writer"].get("enabled")
                and h["n_documents"] == len(texts) + len(acked)
            ):
                break
            assert time.monotonic() < deadline, f"no promotion: {h}"
            time.sleep(0.2)

        # Zero acked records lost: every durable /add the dead primary
        # acknowledged — sealed or WAL-tail — is searchable, complete.
        data = sclient.search("w1 w5 w9", top=h["n_documents"])
        assert data["partial"] is False, data
        ids = {row[2] for row in data["results"]}
        assert set(acked) <= ids, sorted(set(acked) - ids)

        # And the adopted writer accepts new writes.
        ack = sclient.add(["w2 w4 w6 w8"], ["HA-post"])
        assert ack["durable"] is True, ack

        events = [
            json.loads(line)
            for line in open(promo, encoding="utf-8")
        ]
        names = [e["event"] for e in events]
        for expected_event in (
            "standby_start", "followed_epoch", "lock_free", "adopted",
            "promoted",
        ):
            assert expected_event in names, names
        assert names.index("lock_free") < names.index("adopted") < (
            names.index("promoted")
        ), names

        standby.send_signal(signal.SIGTERM)
        out, _ = standby.communicate(timeout=45)
        assert standby.returncode == 0, (standby.returncode, out)
        promote_ms = 1000.0 * (
            next(e["ts"] for e in events if e["event"] == "promoted")
            - next(e["ts"] for e in events if e["event"] == "lock_free")
        )
        print(
            f"promotion: primary SIGKILL'd with 3 WAL-only acked docs -> "
            f"standby adopted + promoted in {promote_ms:.0f}ms, all "
            f"{len(acked)} acked docs searchable, writes accepted "
            f"-> {os.path.basename(promo)}"
        )
    finally:
        for proc in (primary, standby):
            _reap(proc)


def _corpus_b() -> list[str]:
    rng = np.random.default_rng(91)
    vocab = [f"w{i}" for i in range(50)]
    return [" ".join(rng.choice(vocab, size=15)) for _ in range(47)]


def _multitenant_phase(tmp: str, texts: list[str]) -> None:
    """Two tenants, one front end: parity, lazy attach, isolation, LRU."""
    dirs = {
        "alpha": os.path.join(tmp, "tenant-alpha"),
        "beta": os.path.join(tmp, "tenant-beta"),
    }
    corpora = {"alpha": texts, "beta": _corpus_b()}
    for tid, d in dirs.items():
        _seed_store(d, corpora[tid])
    tenants_path = os.path.join(tmp, "tenants.json")
    with open(tenants_path, "w", encoding="utf-8") as fh:
        json.dump(dirs, fh)

    # Per-tenant references over each tenant's own store — the same
    # in-process oracle the single-tenant phases proved the cluster
    # element-identical to, so "identical to two single-tenant
    # clusters" reduces to matching these.
    fleet_shards = 2
    models = {tid: open_latest_model(d) for tid, d in dirs.items()}
    tenant_queries = {tid: corpora[tid][:3] for tid in dirs}
    expected = {
        tid: {q: _whole(models[tid], q, TOP) for q in tenant_queries[tid]}
        for tid in dirs
    }

    def pairs(client: ServerClient, q: str, tid: str) -> tuple[dict, list]:
        data = client.search(q, top=TOP, tenant=tid)
        assert data["tenant"] == tid, data
        return data, [(int(j), float(s)) for j, s, _ in data["results"]]

    # --- Cluster 1: lazy attach, interleaved parity, quotas, isolation.
    slowlog = os.path.join(tmp, "tenants-slow.jsonl")
    proc, port = _start_cluster(
        None, "--tenants", tenants_path, "--workers", str(fleet_shards),
        "--queue-depth", "16", "--slow-ms", "25", "--slowlog", slowlog,
        env_extra={"REPRO_WORKER_INJECT_DELAY_MS": "80"},
    )
    try:
        client = ServerClient(port=port)
        info = client.tenants()
        assert set(info["tenants"]) == set(dirs), info
        assert not any(
            row["resident"] for row in info["tenants"].values()
        ), info

        # An unhosted tenant is a typed 404 carrying the request id...
        try:
            client.search("w1", top=1, tenant="nobody",
                          request_id="smoke-mt-404")
            raise AssertionError("unknown tenant must 404")
        except UnknownTenantError as exc:
            assert exc.tenant == "nobody", exc
            assert exc.request_id == "smoke-mt-404", exc
        # ...and so is naming no tenant at all on a 2-tenant server.
        try:
            client.search("w1", top=1)
            raise AssertionError("ambiguous request must 404")
        except UnknownTenantError:
            pass

        # The first query cold-attaches exactly the tenant it names:
        # alpha's fleet spawns, beta stays a registry entry on disk.
        a_q = tenant_queries["alpha"][0]
        data, got = pairs(client, a_q, "alpha")
        assert data["partial"] is False, data
        assert got == expected["alpha"][a_q], (got, expected["alpha"][a_q])
        resident = {
            tid: row["resident"]
            for tid, row in client.tenants()["tenants"].items()
        }
        assert resident == {"alpha": True, "beta": False}, resident
        print("tenancy: first query attached only its own tenant "
              f"(resident={resident})")

        # Interleaved queries: each response element-identical to its
        # own store's reference (beta's fleet spawns on its first one).
        for i in range(6):
            tid = ("alpha", "beta")[i % 2]
            q = tenant_queries[tid][(i // 2) % len(tenant_queries[tid])]
            data, got = pairs(client, q, tid)
            assert data["partial"] is False, data
            assert got == expected[tid][q], (tid, q, got)
        print("tenancy: 6 interleaved responses element-identical to "
              "each tenant's own in-process reference")

        # One slow log per front end: every one of those queries waited
        # out the 80 ms worker delay, and both tenants' records are in
        # the one file, told apart by their ``tenant`` field.
        slow = read_slowlog(slowlog)
        assert {e["tenant"] for e in slow} == set(dirs), slow
        assert all(e["shard_timings"] for e in slow), slow
        print(f"tenancy: {len(slow)} slow-query record(s) from both "
              "tenants in the one --slowlog file")

        # Federated observability: every fleet's workers land under
        # tenant-prefixed names / tenant-labeled Prometheus series.
        prom = client.metrics_prom()
        _validate_prometheus(prom)
        assert 'tenant="alpha"' in prom and 'tenant="beta"' in prom, prom
        metrics = client.metrics()
        for tid in dirs:
            assert any(
                key.startswith(f"tenant.{tid}.shard.")
                for key in metrics["histograms"]
            ), (tid, sorted(metrics["histograms"]))

        # Quota isolation: flood alpha far past its share; the rejects
        # must be per-tenant 429s and beta must still complete.
        share = client.tenants()["quotas"]["share"]
        t0 = time.monotonic()
        threads, rejected, completed = _flood(
            port, a_q, 3 * share, tenant="alpha"
        )
        b_q = tenant_queries["beta"][0]
        data, got = pairs(client, b_q, "beta")
        beta_ms = 1000.0 * (time.monotonic() - t0)
        assert data["partial"] is False, data
        assert got == expected["beta"][b_q], got
        for t in threads:
            t.join()
        assert rejected, f"no 429 from a {3 * share}-deep alpha flood"
        assert all(
            getattr(e, "reason", None) == "tenant_quota" for e in rejected
        ), [getattr(e, "reason", None) for e in rejected]
        assert beta_ms < 10_000.0, beta_ms
        print(
            f"tenancy: alpha flood (3x share={share}) -> "
            f"{len(rejected)} per-tenant 429(s) "
            f"(reason=tenant_quota, {len(completed)} served); beta "
            f"answered exactly in {beta_ms:.0f}ms meanwhile"
        )

        # Fault isolation: SIGKILL one of alpha's workers — alpha
        # degrades to partial, beta stays complete and exact.
        fleet = client.healthz()["fleets"]["alpha"]
        row = fleet["workers"][0]
        lo, hi = row["lo"], row["hi"]
        os.kill(row["pid"], signal.SIGKILL)
        degraded = None
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            data = client.search(a_q, top=TOP, tenant="alpha")
            if data["partial"]:
                degraded = data
                break
            time.sleep(0.05)
        assert degraded is not None, "alpha never degraded"
        assert degraded["missing"] == [[lo, hi]], degraded["missing"]
        data, got = pairs(client, b_q, "beta")
        assert data["partial"] is False, data
        assert got == expected["beta"][b_q], got
        print(
            f"tenancy: SIGKILL'd an alpha worker -> alpha partial "
            f"(missing=[[{lo},{hi})]), beta complete and exact"
        )

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (proc.returncode, out)
        assert "drained cleanly" in out, out
    finally:
        _reap(proc)

    # --- Cluster 2: a resident-set cap of one — attach, LRU detach,
    # re-attach, all with exact parity.
    proc, port = _start_cluster(
        None, "--tenants", tenants_path, "--workers", str(fleet_shards),
        "--max-resident", "1",
    )
    try:
        client = ServerClient(port=port)
        a_q = tenant_queries["alpha"][0]
        b_q = tenant_queries["beta"][0]
        data, got = pairs(client, a_q, "alpha")
        assert data["partial"] is False, data
        assert got == expected["alpha"][a_q], got
        rows = client.tenants()["tenants"]
        assert rows["alpha"]["resident"] and not rows["beta"]["resident"]

        # Attaching beta pushes the resident set over the cap: alpha —
        # the LRU tenant — detaches once its in-flight queries drain,
        # and its fleet is reaped off the serving path.
        data, got = pairs(client, b_q, "beta")
        assert data["partial"] is False, data
        assert got == expected["beta"][b_q], got
        deadline = time.monotonic() + 30
        while True:
            rows = client.tenants()["tenants"]
            if rows["beta"]["resident"] and not rows["alpha"]["resident"]:
                break
            assert time.monotonic() < deadline, rows
            time.sleep(0.1)

        # Coming back re-attaches alpha (a fresh fleet) with parity.
        data, got = pairs(client, a_q, "alpha")
        assert data["partial"] is False, data
        assert got == expected["alpha"][a_q], got
        rows = client.tenants()["tenants"]
        assert rows["alpha"]["attaches"] >= 2, rows

        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, (proc.returncode, out)
        print(
            "tenancy: max-resident=1 LRU-detached alpha behind beta's "
            f"attach, then re-attached it exactly "
            f"(alpha attaches={rows['alpha']['attaches']})"
        )
    finally:
        _reap(proc)


def _reap(proc: subprocess.Popen | None) -> None:
    """Failure-path cleanup: kill the front end, tolerate a held pipe.

    A SIGKILLed front end cannot SIGTERM its workers, and they inherit
    its stdout pipe — so ``communicate`` may never see EOF; the timeout
    keeps a failed phase from hanging the whole smoke."""
    if proc is None or proc.poll() is not None:
        return
    proc.kill()
    try:
        proc.communicate(timeout=10)
    except subprocess.TimeoutExpired:
        pass


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "store")
        texts = _corpus()
        _seed_store(data_dir, texts)
        model = open_latest_model(data_dir)
        queries = texts[:5]
        expected = {q: _whole(model, q, TOP) for q in queries}
        full = {q: _whole(model, q, model.n_documents) for q in queries}

        proc, port = _start_cluster(data_dir)
        try:
            client = ServerClient(port=port)
            health = client.healthz()
            assert health["status"] == "ok", health
            assert health["workers_live"] == SHARDS, health

            # Phase 1: parity with the in-process whole-model search.
            for q in queries:
                data, got = _search_pairs(client, q)
                assert data["partial"] is False, data
                assert got == expected[q], (q, got, expected[q])
            print(f"parity: {len(queries)} responses element-identical "
                  "to the whole-model EpochSnapshot.search")

            # Phase 1b: ANN parity.  Every worker maps the same
            # checkpoint quantizer and cell selection is a pure
            # function of the scaled query, so a cluster probe-bounded
            # search must merge to exactly an in-process probe of the
            # same quantizer over the same shard slices — and probing
            # every cell must equal the exact scan.
            assert health["ann"] is True, health
            ann = open_latest_ann(data_dir)
            assert ann is not None, "seeded checkpoint has no quantizer"
            # Each shard's rows laid out by that shard's cells, as a
            # worker holds them.
            shard_rows = [
                (lo, scaled_rows(model.V[lo:hi], model.s, ann, lo=lo))
                for lo, hi in shard_bounds(model.n_documents, SHARDS)
            ]
            probes = max(1, ann.n_clusters // 2)
            for q in queries:
                qhat = project_query(model, q)
                per_shard = [
                    ann.select(
                        rows, qhat * model.s,
                        probes=probes, top=TOP, offset=lo,
                    )[0]
                    for lo, rows in shard_rows
                ]
                ref = [
                    (int(j), float(s))
                    for j, s in merge_topk(per_shard, TOP)
                ]
                data, got = _search_pairs(client, q, probes=probes)
                assert data["partial"] is False, data
                assert got == ref, (q, got, ref)
                _, got_full = _search_pairs(
                    client, q, probes=ann.n_clusters
                )
                assert got_full == expected[q], (q, got_full, expected[q])
            print(f"ann parity: probes={probes} element-identical to the "
                  f"sharded in-process probe; probes={ann.n_clusters} "
                  f"(all cells) identical to the exact scan")

            # Phase 1c: all three workers live → one cluster-wide trace,
            # valid Prometheus exposition, request-id echo on errors.
            _observability_phase(client)

            # Phase 2: SIGKILL one worker → partial with its range.
            victim = 1
            row = health["workers"][victim]
            lo, hi = row["lo"], row["hi"]
            os.kill(row["pid"], signal.SIGKILL)
            degraded = None
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                data, got = _search_pairs(client, queries[0])
                if data["partial"]:
                    degraded = (data, got)
                    break
                time.sleep(0.05)
            assert degraded is not None, "never observed a partial response"
            data, got = degraded
            assert data["missing"] == [[lo, hi]], data["missing"]
            survivors = [
                p for p in full[queries[0]] if not lo <= p[0] < hi
            ][:TOP]
            assert got == survivors, (got, survivors)
            print(f"degradation: SIGKILL shard {victim} -> partial=true, "
                  f"missing=[[{lo},{hi})], survivors exact")

            # Phase 3: the supervisor restarts it → full parity again.
            # A single request may still see a transient partial right
            # after the restart (a deadline miss on a cold worker is
            # degradation, not an error), so retry until the response
            # is complete — completeness, not the first attempt, is the
            # contract.
            deadline = time.monotonic() + 45
            while time.monotonic() < deadline:
                if client.healthz()["workers_live"] == SHARDS:
                    break
                time.sleep(0.1)
            health = client.healthz()
            assert health["workers_live"] == SHARDS, health
            pending = list(queries)
            while pending and time.monotonic() < deadline:
                q = pending[0]
                data, got = _search_pairs(client, q)
                if data["partial"]:
                    time.sleep(0.1)
                    continue
                assert got == expected[q], (q, got, expected[q])
                pending.pop(0)
            assert not pending, f"still partial after restart: {pending}"
            restarts = health["workers"][victim]["restarts"]
            assert restarts >= 1, health["workers"]
            print(f"recovery: worker {victim} restarted "
                  f"(restarts={restarts}), full parity restored")

            # The status verb agrees with what we just saw.
            status = subprocess.run(
                [
                    sys.executable, "-m", "repro", "--no-obs", "cluster",
                    "status", "--port", str(port), "--json",
                ],
                capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH="src"),
                timeout=30,
            )
            assert status.returncode == 0, status.stderr
            assert json.loads(status.stdout)["workers_live"] == SHARDS

            # Phase 4: graceful drain on SIGTERM.
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=45)
            assert proc.returncode == 0, (proc.returncode, out)
            assert "drained cleanly" in out, out
            print("drain: exit 0, drained cleanly")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

        # Phase 5: a fresh cluster with a delayed worker → slow-query log.
        _slowlog_phase(data_dir)

        # Phase 6: R=2 — a SIGKILL'd replica costs nothing mid-stream.
        _replication_phase(data_dir, queries, expected)

        # Phase 7: primary SIGKILL → standby adoption, zero acked loss.
        _promotion_phase(tmp, texts)

        # Phase 8: two tenants behind one front end — routed parity,
        # lazy attach, quota + fault isolation, LRU detach.
        _multitenant_phase(tmp, texts)

    print("cluster smoke: OK")


if __name__ == "__main__":
    t0 = time.perf_counter()
    main()
    print(f"({time.perf_counter() - t0:.1f}s)")
