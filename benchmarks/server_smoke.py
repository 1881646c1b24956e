"""End-to-end smoke test for ``python -m repro serve``.

Boots the real server as a subprocess on an ephemeral port, then checks
the acceptance criteria that only hold across a process boundary:

* concurrent ``/search`` responses are element-identical to an
  in-process :class:`~repro.retrieval.engine.LSIRetrieval` built from
  the same corpus and parameters;
* ``/add`` bumps the epoch and every later response reflects it;
* SIGINT drains cleanly — queued work finishes, an idle keep-alive
  connection is closed, the process prints ``drained cleanly``, exits
  0 and prints no traceback;
* a store written by ``repro index`` and served two ways — ``serve
  --tenant t=db`` and ``serve db`` — answers a ``probes`` search with
  an ``ann`` block and identical results on both; ``repro add`` then
  grows it, and ``repro query`` ranks the added document.

Run directly (CI does)::

    PYTHONPATH=src:benchmarks python benchmarks/server_smoke.py
"""

from __future__ import annotations

import http.client
import os
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.corpus.med import MED_TOPICS
from repro.retrieval.engine import LSIRetrieval
from repro.server.client import ServerClient
from repro.server.state import manager_from_texts

K = 8
THREADS = 8
ROUNDS = 6  # each thread runs every query this many times

QUERIES = [
    "blood pressure age",
    "oestrogen blood",
    "age of children with blood abnormalities",
    "renal flow",
    "heart rate oxygen consumption",
]


def _corpus() -> list[str]:
    extra = [
        "renal blood flow measurement in anesthetized dogs",
        "oxygen consumption and heart rate during moderate exercise",
        "growth hormone levels in fasting children",
        "spectral analysis of heart rate variability signals",
    ]
    return [MED_TOPICS[f"M{i}"] for i in range(1, 15)] + extra


ENV = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")


def _start_server(*serve_args: str) -> tuple[subprocess.Popen, int]:
    """Launch ``repro serve`` on an ephemeral port; return (proc, port)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--no-obs", "serve", *serve_args,
            "--port", "0",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=ENV,
    )
    banner = proc.stdout.readline().strip()
    if "on http://" not in banner:
        proc.kill()
        raise SystemExit(f"unexpected server banner: {banner!r}")
    port = int(banner.rsplit(":", 1)[1])
    print(f"server up: {banner}")
    return proc, port


def main() -> None:
    docs = _corpus()
    # The CLI reads one document per line with ids L1..Ln; build the
    # in-process reference through the same construction path.
    reference = manager_from_texts(
        docs, [f"L{i + 1}" for i in range(len(docs))], k=K
    )
    engine = LSIRetrieval(reference.model)
    expected = {q: engine.search(q, top=5) for q in QUERIES}

    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.txt")
        with open(corpus_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(line.replace("\n", " ") for line in docs))

        proc, port = _start_server(
            corpus_path, "-k", str(K), "--max-batch", "8",
            "--queue-depth", "64",
        )
        try:
            client = ServerClient(port=port)
            health = client.healthz()
            assert health["n_documents"] == len(docs), health

            # Concurrent load: every thread replays every query and
            # checks element-identical results against the engine.
            def worker(seed: int) -> int:
                rng = np.random.default_rng(seed)
                checked = 0
                for _ in range(ROUNDS):
                    q = QUERIES[rng.integers(len(QUERIES))]
                    got = client.search_pairs(q, top=5)
                    want = [(int(j), float(s)) for j, s in expected[q]]
                    assert [j for j, _ in got] == [j for j, _ in want], (
                        f"doc order diverged for {q!r}: {got} != {want}"
                    )
                    np.testing.assert_allclose(
                        [s for _, s in got], [s for _, s in want],
                        rtol=0, atol=1e-12,
                    )
                    checked += 1
                return checked

            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                total = sum(pool.map(worker, range(THREADS)))
            print(f"parity: {total} concurrent responses identical to engine")

            stats = client.stats()
            batches = stats["metrics"]["counters"].get("server.batches_total", 0)
            assert batches >= 1, stats["metrics"]
            print(f"batching: {total} requests served in {batches} batches")

            # Live update: one /add must bump the epoch everywhere.
            added = client.add(
                ["regression analysis of renal blood flow data"], ["NEW1"]
            )
            assert added["epoch"] == 1 and added["n_documents"] == len(docs) + 1, added
            after = client.search("renal flow", top=5)
            assert after["epoch"] == 1 and after["n_documents"] == len(docs) + 1, after
            print(f"live add: epoch 0 -> {added['epoch']}, "
                  f"{added['n_documents']} documents")

            # Graceful drain on SIGINT, with a keep-alive connection left
            # idle across it: the drain must close it, not leave its
            # handler for the interpreter to cancel (a traceback).
            idle = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            idle.request("GET", "/healthz")
            reply = idle.getresponse()
            reply.read()
            assert reply.getheader("Connection") == "keep-alive"
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            idle.close()
            assert proc.returncode == 0, (proc.returncode, out)
            assert "drained cleanly" in out, out
            assert "Traceback" not in out, out
            print("drain: exit 0, drained cleanly, idle keep-alive closed")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)

        _saved_database_probes_one_way(tmp, corpus_path)

    print("server smoke: OK")


def _saved_database_probes_one_way(tmp: str, corpus_path: str) -> None:
    """``serve --tenant t=db`` and ``serve db`` open the store ``repro
    index`` wrote through one opener: a probe-bounded search answers
    identically.  ``repro add`` then grows it, and the next ``repro
    query`` process ranks the added document."""
    db = os.path.join(tmp, "db")
    _repro("index", corpus_path, db, "-k", str(K))
    answers = []
    for tenant, serve_args in (("t", ("--tenant", f"t={db}")), (None, (db,))):
        proc, port = _start_server(*serve_args)
        try:
            with ServerClient(port=port) as client:
                data = client.search(
                    QUERIES[0], top=5, probes=2, tenant=tenant
                )
            assert "ann" in data, (serve_args, data)
            answers.append(data)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0 and "drained cleanly" in out, out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
    tenant_answer, source_answer = answers
    assert tenant_answer["ann"] == source_answer["ann"], answers
    assert tenant_answer["results"] == source_answer["results"], answers
    print(f"saved database: tenant and source both probe "
          f"({source_answer['ann']}), results identical")

    new = os.path.join(tmp, "new.txt")
    with open(new, "w") as fh:
        fh.write("regression analysis of renal blood flow data\n")
    added = _repro("add", db, new)
    ranked = _repro("query", db, "renal", "flow", "-n", "3").split()
    new_id = f"D{len(_corpus()) + 1}"
    assert new_id in ranked[1::2], (added, ranked)
    print(f"saved database: {added.strip()}; "
          f"query ranks {new_id} in the top 3")


def _repro(*argv: str) -> str:
    """Run one toolbox command in its own process; its stdout."""
    return subprocess.run(
        [sys.executable, "-m", "repro", "--no-obs", *argv],
        env=ENV, check=True, capture_output=True, text=True,
    ).stdout


if __name__ == "__main__":
    t0 = time.perf_counter()
    main()
    print(f"({time.perf_counter() - t0:.1f}s)")
