"""Crash-recovery smoke test for ``python -m repro serve --data-dir``.

The durability contract across a *process boundary*, with a real
SIGKILL (no atexit handlers, no flush — the kernel just removes the
process):

1. boot the durable server, seed a data directory, POST
   ``CHECKPOINT_EVERY`` ``/add`` fold-ins, wait (a few ticks at most)
   until the server's seal loop has sealed them on its record trigger
   (``store inspect`` lists a ``wal_records>=4`` checkpoint), POST
   ``TAIL`` < ``CHECKPOINT_EVERY`` more, and SIGKILL the process;
2. restart the server on the same data directory and assert it
   recovered **at least** every acknowledged add (acknowledged =
   WAL-fsynced before the HTTP 200 went out), replaying exactly the
   ``TAIL`` records no seal covered and sealing them (reason
   ``recover``) before it serves;
3. build an in-process reference manager that absorbs exactly the adds
   the recovered server reports, and assert ``/search`` responses are
   element-identical — the recovered index is bit-for-bit the index the
   killed process had;
4. run ``repro store verify`` (clean) and ``repro store compact``, then
   re-serve and assert the same parity — compaction changes no result;
5. after the recovered server's final seal and after the compaction,
   assert the newest checkpoint writes each factor and each document id
   once.

Run directly (CI does)::

    PYTHONPATH=src:benchmarks python benchmarks/store_crash_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.corpus.med import MED_TOPICS
from repro.retrieval.engine import LSIRetrieval
from repro.server.client import ServerClient
from repro.server.state import manager_from_texts

K = 8
CHECKPOINT_EVERY = 4  # force checkpoint + WAL-suffix mixtures mid-stream
TAIL = CHECKPOINT_EVERY - 1  # acked after the policy seal, never sealed
N_ADDS = CHECKPOINT_EVERY + TAIL
QUERIES = [
    "blood pressure age",
    "renal blood flow",
    "heart rate oxygen consumption",
    "growth hormone in children",
]
ADDS = [
    f"streamed document {i} about renal blood flow and hormone response {i}"
    for i in range(N_ADDS)
]


FILLER_TOPICS = [
    "blood pressure", "renal flow", "heart rate", "growth hormone",
    "oxygen consumption", "insulin response", "liver enzymes",
    "bone density",
]


def _corpus() -> list[str]:
    extra = [
        "renal blood flow measurement in anesthetized dogs",
        "oxygen consumption and heart rate during moderate exercise",
        "growth hormone levels in fasting children",
        "spectral analysis of heart rate variability signals",
    ]
    # Enough documents that the whole stream folds in (p/n stays within
    # the manager's 0.1 distortion budget): no add consolidates, so the
    # record trigger is the only seal the stream can cause.
    filler = [
        f"clinical note {i} on {FILLER_TOPICS[i % 8]} and "
        f"{FILLER_TOPICS[(3 * i + 1) % 8]}"
        for i in range(56)
    ]
    return [MED_TOPICS[f"M{i}"] for i in range(1, 15)] + extra + filler


def _serve(
    data_dir: str, corpus_path: str
) -> tuple[subprocess.Popen, int, str]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "--no-obs", "serve", corpus_path,
            "--data-dir", data_dir, "-k", str(K), "--port", "0",
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    port = None
    banner: list[str] = []
    while port is None:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"server died during boot:\n{''.join(banner)}")
        banner.append(line)
        if "on http://" in line:
            port = int(line.strip().rsplit(":", 1)[1])
    print("".join(f"  {line}" for line in banner), end="")
    return proc, port, "".join(banner)


def _repro(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "--no-obs", *args],
        env=env, capture_output=True, text=True,
    )


def _wait_for_policy_seal(data_dir: str) -> None:
    """Wait a few seal-loop ticks for the record trigger's checkpoint."""
    reason = f"wal_records>={CHECKPOINT_EVERY}"
    deadline = time.monotonic() + 10.0
    while True:
        r = _repro("store", "inspect", data_dir, "--json")
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
        checkpoints = json.loads(r.stdout)["checkpoints"]
        if any(c["reason"] == reason for c in checkpoints):
            return
        assert time.monotonic() < deadline, (
            f"the seal loop never sealed on its record trigger: {checkpoints}"
        )
        time.sleep(0.25)


def _search_all(client: ServerClient) -> dict[str, list]:
    return {q: client.search_pairs(q, top=5) for q in QUERIES}


def _assert_parity(got: dict[str, list], want: dict[str, list], label: str):
    for q in QUERIES:
        assert [j for j, _ in got[q]] == [j for j, _ in want[q]], (
            f"{label}: doc order diverged for {q!r}: {got[q]} != {want[q]}"
        )
        np.testing.assert_allclose(
            [s for _, s in got[q]], [s for _, s in want[q]],
            rtol=0, atol=0, err_msg=f"{label}: scores diverged for {q!r}",
        )


def _assert_written_once(data_dir: str, label: str) -> None:
    """The newest checkpoint holds each factor and each document id
    once: no ``model_*`` array has its ``base_*`` twin's shape and
    CRC32, and ``doc_ids`` is the only list in the manifest naming a
    document."""
    root = os.path.join(data_dir, "checkpoints")
    newest = max(n for n in os.listdir(root) if not n.endswith(".tmp"))
    with open(os.path.join(root, newest, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    arrays = manifest["arrays"]
    for name, entry in arrays.items():
        if name.startswith("model_"):
            twin = arrays["base_" + name[len("model_"):]]
            assert (entry["shape"], entry["crc32"]) != (
                twin["shape"], twin["crc32"]
            ), f"{label}: {newest} writes {name} bit-equal to its base twin"
    meta = manifest["meta"]
    ids = set(meta["doc_ids"])
    assert len(ids) == len(meta["doc_ids"]), f"{label}: doc_ids repeat"
    repeated = sorted(
        key for key, value in meta.items()
        if key != "doc_ids" and isinstance(value, list) and ids & set(map(str, value))
    )
    assert not repeated, f"{label}: {newest} lists doc ids again in {repeated}"
    print(f"  {label}: {newest} holds each factor and doc id once")


def main() -> None:
    docs = _corpus()
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = os.path.join(tmp, "corpus.txt")
        with open(corpus_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(d.replace("\n", " ") for d in docs))
        data_dir = os.path.join(tmp, "store")

        # ---- phase 1: seed, stream adds, SIGKILL mid-stream ---------- #
        proc, port, _ = _serve(data_dir, corpus_path)
        client = ServerClient(port=port)
        acked = 0
        try:
            for i, text in enumerate(ADDS):
                ack = client.add([text], [f"S{i}"])
                acked += 1
                # A consolidation would seal on its own trigger.
                assert ack["action"] == "fold-in", ack
                if acked == CHECKPOINT_EVERY:
                    _wait_for_policy_seal(data_dir)
                    print(f"  seal loop sealed after {acked} adds "
                          f"(wal_records>={CHECKPOINT_EVERY})")
        finally:
            proc.kill()  # SIGKILL: no drain, no flush, no final checkpoint
            proc.communicate(timeout=10)
        print(f"  killed -9 after {acked} acknowledged adds")
        assert acked == N_ADDS

        # ---- phase 2: restart, assert every acked add survived ------- #
        proc, port, banner = _serve(data_dir, corpus_path)
        try:
            replayed = re.search(r"\+(\d+) WAL records replayed", banner)
            assert replayed and int(replayed.group(1)) == TAIL, (
                f"expected the {TAIL} unsealed adds replayed: {banner}"
            )
            # The owner sealed the replayed tail before it served.
            r = _repro("store", "inspect", data_dir, "--json")
            assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
            newest = json.loads(r.stdout)["checkpoints"][-1]
            assert newest["reason"] == "recover", (
                f"the warm restart did not seal its replayed tail: {newest}"
            )
            print("  boot seal: the replayed tail sealed as 'recover'")
            client = ServerClient(port=port)
            n_recovered = client.healthz()["n_documents"]
            recovered_adds = n_recovered - len(docs)
            assert recovered_adds >= acked, (
                f"acknowledged adds lost: served {recovered_adds} of "
                f"{acked} acked (acknowledged = WAL-fsynced)"
            )
            print(f"  recovered {recovered_adds}/{acked} acked adds")

            # The reference: the same seed corpus + exactly the adds the
            # recovered server reports, through the same manager path.
            manager = manager_from_texts(
                docs, [f"L{i + 1}" for i in range(len(docs))], k=K
            )
            for i in range(recovered_adds):
                manager.add_texts([ADDS[i]], doc_ids=[f"S{i}"])
            engine = LSIRetrieval(manager.model)
            expected = {
                q: [(int(j), float(s)) for j, s in engine.search(q, top=5)]
                for q in QUERIES
            }
            _assert_parity(_search_all(client), expected, "post-crash")
            print(f"  parity: {len(QUERIES)} queries element-identical to "
                  "the uninterrupted reference")

            # The recovered checkpoint still carries its ANN arrays
            # (the kill raced the seal loop's quantizer
            # training), and probing every cell reproduces the exact
            # scan — WAL-replayed documents the quantizer never saw are
            # covered by the fresh-tail rule.
            r = _repro("store", "inspect", data_dir, "--json")
            assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
            description = json.loads(r.stdout)
            assert description["ann"], (
                "recovered checkpoint lost its ANN arrays"
            )
            assert client.healthz()["ann"] is True
            got_ann = {
                q: client.search_pairs(q, top=5, probes=1000)
                for q in QUERIES
            }
            _assert_parity(got_ann, expected, "post-crash full-probe ann")
            print("  ann: quantizer recovered; full-probe search "
                  "element-identical to the exact scan")
        finally:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        assert "store flushed" in out and "drained cleanly" in out, out
        print("  graceful drain: final checkpoint flushed")
        _assert_written_once(data_dir, "recovered server's seal")

        # ---- phase 3: verify + compact + re-serve -------------------- #
        r = _repro("store", "verify", data_dir)
        assert r.returncode == 0 and "verified clean" in r.stdout, (
            r.returncode, r.stdout, r.stderr,
        )
        print(f"  {r.stdout.strip()}")
        r = _repro("store", "compact", data_dir)
        assert r.returncode == 0, (r.returncode, r.stdout, r.stderr)
        print(f"  {r.stdout.strip()}")
        _assert_written_once(data_dir, "compact")

        proc, port, _ = _serve(data_dir, corpus_path)
        try:
            client = ServerClient(port=port)
            assert client.healthz()["n_documents"] == n_recovered
            _assert_parity(_search_all(client), expected, "post-compact")
            print("  parity after compact: identical")
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=30)

    print("store crash smoke: OK")


if __name__ == "__main__":
    t0 = time.perf_counter()
    main()
    print(f"({time.perf_counter() - t0:.1f}s)")
