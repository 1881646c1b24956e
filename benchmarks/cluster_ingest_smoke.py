"""End-to-end smoke test for the writable cluster's ingest tier.

Boots the real thing — ``python -m repro cluster serve --writable`` as
a subprocess, shard workers under it — and checks the write-path
acceptance criteria that only hold across process boundaries:

* **ingest while serving**: a background ``/add`` stream runs while the
  foreground hammers ``/search``; every response must be complete
  (``partial=false``) across at least one epoch bump — the
  seal -> bump -> publish ordering drops zero in-flight queries;
* **propagation**: after the stream drains, the serving epoch has
  advanced, every worker reports the serving epoch, the writer's lag is
  zero, and the new documents are searchable;
* **SIGKILL mid-stream**: the front end (which owns the store) is
  killed -9 between acknowledged batches;
* **bit-identical recovery**: replaying the surviving WAL twice
  in-process yields byte-identical factors, and every acknowledged
  document is in the replayed model — acknowledged means WAL-fsynced;
* **restart**: a fresh ``--writable`` boot on the same store seals the
  recovered state (``reason=recover``) and serves every acknowledged
  document, then drains cleanly on SIGTERM.

The phase evidence lands in ``SMOKE_cluster_ingest.json`` (CI uploads
it).  Run directly (CI does)::

    PYTHONPATH=src:benchmarks python benchmarks/cluster_ingest_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.server.client import ServerClient
from repro.server.state import manager_from_texts
from repro.store.durable import DurableIndexStore
from repro.store.recovery import recover_manager

K = 8
SHARDS = 2
TOP = 10
SEED_DOCS = 40
STREAM_BATCHES = 8
BATCH = 3


def _corpus(n: int, seed: int = 43) -> list[str]:
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(50)]
    return [" ".join(rng.choice(vocab, size=15)) for _ in range(n)]


def _seed_store(data_dir: str, texts: list[str]) -> None:
    ids = [f"D{i}" for i in range(len(texts))]
    store = DurableIndexStore.initialize(
        data_dir, manager_from_texts(texts, ids, k=K)
    )
    store.close(flush=False)


def _start_cluster(data_dir: str) -> tuple[subprocess.Popen, int]:
    """Launch ``repro cluster serve --writable``; return (proc, port)."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--no-obs", "cluster", "serve",
            "--data-dir", data_dir, "--workers", str(SHARDS),
            "--port", "0", "--heartbeat-interval", "0.25",
            "--writable", "--seal-every", "3", "--seal-interval", "1.0",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env,
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
            assert ", writable" in line, line
            return proc, int(line.rsplit(":", 1)[1])
    proc.kill()
    raise SystemExit("cluster banner never appeared")


class _AddStream(threading.Thread):
    """A background ``/add`` stream recording which batches were acked.

    ``acked`` only ever grows on an HTTP 200 — an ack is the server's
    claim that the batch is WAL-fsynced, which the recovery phase then
    holds it to.  A connection error (the SIGKILL phase) just ends the
    stream.
    """

    def __init__(self, port: int, prefix: str, *, pause: float = 0.0):
        super().__init__(daemon=True)
        self.port = port
        self.prefix = prefix
        self.pause = pause
        self.acked: list[str] = []
        self.error: str | None = None

    def run(self) -> None:
        texts = _corpus(STREAM_BATCHES * BATCH, seed=100 + ord(self.prefix[0]))
        try:
            with ServerClient(port=self.port) as client:
                for b in range(STREAM_BATCHES):
                    ids = [
                        f"{self.prefix}{b * BATCH + j}" for j in range(BATCH)
                    ]
                    ack = client.add(
                        texts[b * BATCH:(b + 1) * BATCH], ids
                    )
                    assert ack["durable"] is True, ack
                    self.acked.extend(ids)
                    if self.pause:
                        time.sleep(self.pause)
        except Exception as exc:  # noqa: BLE001 — expected on SIGKILL
            self.error = repr(exc)


def _wait_converged(client: ServerClient, *, past_epoch: int) -> dict:
    """Block until the cluster serves an epoch past ``past_epoch`` with
    every worker on it and the writer fully drained; return healthz."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        h = client.healthz()
        if (
            h["epoch"] > past_epoch
            and h["writer"]["lag_records"] == 0
            and all(w["epoch"] == h["epoch"] for w in h["workers"])
        ):
            return h
        time.sleep(0.1)
    raise SystemExit(f"cluster never converged past epoch {past_epoch}")


def main() -> None:
    evidence: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "store")
        _seed_store(data_dir, _corpus(SEED_DOCS))

        proc, port = _start_cluster(data_dir)
        worker_pids: list[int] = []
        try:
            client = ServerClient(port=port)
            health = client.healthz()
            assert health["status"] == "ok", health
            assert health["writer"]["enabled"] is True, health["writer"]
            assert health["writer"]["ingest_method"] == "fast-update"
            epoch0 = health["epoch"]
            worker_pids = [w["pid"] for w in health["workers"]]

            # Phase 1: ingest while serving — zero in-flight drops
            # across at least one epoch bump.
            stream = _AddStream(port, "A", pause=0.05)
            stream.start()
            searches = 0
            bumped_mid_flight = False
            deadline = time.monotonic() + 90
            while stream.is_alive() or not bumped_mid_flight:
                assert time.monotonic() < deadline, "phase 1 stalled"
                data = client.search("w1 w2 w3", top=TOP)
                assert data["partial"] is False, data
                searches += 1
                if data["epoch"] > epoch0:
                    bumped_mid_flight = True
            stream.join()
            assert stream.error is None, stream.error
            assert len(stream.acked) == STREAM_BATCHES * BATCH

            h = _wait_converged(client, past_epoch=epoch0)
            n_after_stream = SEED_DOCS + len(stream.acked)
            assert h["n_documents"] == n_after_stream, h
            data = client.search("w1 w2 w3", top=h["n_documents"])
            assert data["partial"] is False, data
            served = {row[2] for row in data["results"]}
            assert served >= set(stream.acked), "acked docs not searchable"
            print(
                f"ingest-while-serving: {searches} searches complete "
                f"(zero partial) across epoch {epoch0} -> {h['epoch']}, "
                f"{len(stream.acked)} docs acked + searchable, lag 0"
            )
            evidence["phase1"] = {
                "searches": searches,
                "drops": 0,
                "epoch_boot": epoch0,
                "epoch_converged": h["epoch"],
                "docs_acked": len(stream.acked),
            }

            # Phase 2: SIGKILL the writer mid-stream.  The stream's
            # pause makes "between acknowledged batches" likely; any
            # in-flight batch simply never gets its ack (and so is not
            # owed durability).
            stream2 = _AddStream(port, "B", pause=0.2)
            stream2.start()
            while len(stream2.acked) < 2 * BATCH and stream2.is_alive():
                time.sleep(0.02)
            os.kill(proc.pid, signal.SIGKILL)
            # wait(), not communicate(): the orphaned shard workers
            # still hold the stdout pipe's write end, so EOF never
            # comes — they are reaped in the finally below.
            proc.wait(timeout=30)
            stream2.join(timeout=30)
            acked = list(stream2.acked)  # snapshot: the durability claim
            print(
                f"sigkill: writer killed -9 mid-stream "
                f"({len(acked)} docs acked before death)"
            )
            assert len(acked) >= 2 * BATCH
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            # The shard workers outlive a SIGKILLed supervisor (they
            # are its children, not a process group) — reap them so
            # they don't hold the ports/files (or the stdout pipe).
            for pid in worker_pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.stdout.close()

        # Phase 3: bit-identical recovery, in-process.  Two independent
        # WAL replays of the crashed store must agree byte-for-byte,
        # and every acknowledged document must be in the replayed model.
        paths = DurableIndexStore.paths(data_dir)
        m1, report1 = recover_manager(*paths)
        m2, report2 = recover_manager(*paths)
        assert np.array_equal(m1.model.U, m2.model.U)
        assert np.array_equal(m1.model.s, m2.model.s)
        assert np.array_equal(m1.model.V, m2.model.V)
        assert m1.model.doc_ids == m2.model.doc_ids
        assert report1.replayed_records == report2.replayed_records
        assert m1.ingest_method == "fast-update", m1.ingest_method
        recovered_ids = set(m1.model.doc_ids)
        missing = [d for d in acked if d not in recovered_ids]
        assert not missing, f"acked but lost in recovery: {missing}"
        print(
            f"recovery: {report1.replayed_records} WAL record(s) replayed "
            f"bit-identically twice; all {len(acked)} acked docs present"
        )
        evidence["phase3"] = {
            "replayed_records": report1.replayed_records,
            "acked_docs_recovered": len(acked),
            "n_documents": m1.model.n_documents,
        }

        # Phase 4: restart on the same store — the boot seal publishes
        # the recovered state, and the cluster serves every
        # acknowledged document.
        proc, port = _start_cluster(data_dir)
        try:
            client = ServerClient(port=port)
            h = client.healthz()
            assert h["n_documents"] == m1.model.n_documents, h
            assert h["writer"]["lag_records"] == 0, h["writer"]
            data = client.search("w1 w2 w3", top=h["n_documents"])
            assert data["partial"] is False, data
            served = {row[2] for row in data["results"]}
            assert served >= set(acked), "acked docs lost across restart"
            print(
                f"restart: {h['n_documents']} documents served at epoch "
                f"{h['epoch']} (boot seal covers the recovered WAL)"
            )
            evidence["phase4"] = {
                "epoch": h["epoch"],
                "n_documents": h["n_documents"],
            }

            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=45)
            assert proc.returncode == 0, (proc.returncode, out)
            assert "drained cleanly" in out, out
            print("drain: exit 0, drained cleanly")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

    with open("SMOKE_cluster_ingest.json", "w") as fh:
        json.dump(evidence, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("cluster ingest smoke: OK")


if __name__ == "__main__":
    t0 = time.perf_counter()
    main()
    print(f"({time.perf_counter() - t0:.1f}s)")
