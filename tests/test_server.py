"""Integration tests for the async query service (repro.server).

The acceptance criteria under test, per the server's contracts:

* **Parity** — batched, coalesced responses are element-identical to
  ``LSIRetrieval.search`` for the same query and filters;
* **Backpressure** — the bounded admission queue rejects overload fast
  (429 semantics) instead of growing memory;
* **Epoch consistency** — ``/add`` under concurrent query load never
  produces torn reads: every response was computed wholly against one
  epoch, and epochs map 1:1 onto document counts;
* **Drain** — shutdown finishes every queued request and rejects new
  ones (503 semantics);
* **Transport** — the stdlib HTTP front end and blocking client round-
  trip all of the above, with failures mapped onto the exception
  hierarchy.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cli import build_parser
from repro.corpus.med import MED_TOPICS
from repro.errors import DeadlineExceededError, ReproError, ServerOverloadError
from repro.obs.metrics import registry
from repro.parallel.sharding import merge_topk, shard_bounds
from repro.retrieval.engine import LSIRetrieval
from repro.server.client import ServerClient
from repro.server.http import start_http_server
from repro.server.service import QueryService, ServerConfig
from repro.server.state import (
    EpochSnapshot,
    ServingState,
    manager_from_texts,
    train_quantizer,
)

QUERIES = [
    "blood pressure age",
    "oestrogen blood",
    "fast fourier transform",
    "age of children with blood abnormalities",
    "renal flow",
    "heart rate oxygen",
]


def _texts() -> list[str]:
    """A small deterministic corpus: MEDLINE topics plus filler docs."""
    extra = [
        "renal blood flow measurement in anesthetized dogs",
        "oxygen consumption and heart rate during moderate exercise",
        "growth hormone levels in fasting children",
        "spectral analysis of heart rate variability signals",
    ]
    return [MED_TOPICS[f"M{i}"] for i in range(1, 15)] + extra


def _fresh_state(
    distortion_budget: float = 0.5, n_clusters: int | None = None, **backend
) -> ServingState:
    """A live state; with ``n_clusters``, one probing that many cells
    (``backend``: its ``max_batch``)."""
    manager = manager_from_texts(_texts(), k=6, scheme="log_entropy")
    manager.distortion_budget = distortion_budget
    ann = train_quantizer(manager.model, n_clusters) if n_clusters else None
    return ServingState.for_manager(manager, ann=ann, **backend)


def _pairs(response: dict) -> list[tuple[int, float]]:
    return [(int(j), float(score)) for j, score, _ in response["results"]]


# --------------------------------------------------------------------- #
# parity with the unbatched engine
# --------------------------------------------------------------------- #
def test_coalesced_batch_identical_to_engine():
    registry.reset("server.")
    cases = [
        (QUERIES[i % len(QUERIES)], kwargs)
        for i, kwargs in enumerate(
            [
                {},
                {"top": 5},
                {"top": 1},
                {"threshold": 0.2},
                {"top": 3, "threshold": 0.1},
                {"top": 1000},
            ]
            * 2
        )
    ]
    state = _fresh_state(max_batch=len(cases))
    engine = LSIRetrieval(state.current().model)

    async def main():
        service = QueryService(state)
        await service.start()
        responses = await asyncio.gather(
            *(service.search(q, **kw) for q, kw in cases)
        )
        await service.drain()
        return responses

    responses = asyncio.run(main())
    for (q, kw), response in zip(cases, responses):
        want = engine.search(q, **kw)
        got = _pairs(response)
        assert [j for j, _ in got] == [j for j, _ in want], (q, kw)
        assert np.allclose(
            [c for _, c in got], [c for _, c in want], atol=1e-12
        ), (q, kw)
        assert response["epoch"] == 0
        assert response["n_documents"] == engine.n_documents
    # The requests were actually coalesced, not served one by one.
    hist = registry.histogram("server.batch_size")
    assert hist is not None and hist.max > 1


def test_single_request_batch_bit_identical_to_engine():
    """A batch of one takes the kernel's q=1 GEMV path, so scores are
    bit-identical to the engine, not merely allclose."""
    state = _fresh_state()
    engine = LSIRetrieval(state.current().model)

    async def main():
        service = QueryService(state, ServerConfig())
        await service.start()
        response = await service.search(QUERIES[0], top=7)
        await service.drain()
        return response

    assert _pairs(asyncio.run(main())) == engine.search(QUERIES[0], top=7)


def test_batches_respect_max_batch():
    registry.reset("server.")
    state = _fresh_state(max_batch=4)

    async def main():
        service = QueryService(state)
        await service.start()
        await asyncio.gather(
            *(service.search(QUERIES[i % 6], top=3) for i in range(10))
        )
        await service.drain()

    asyncio.run(main())
    hist = registry.histogram("server.batch_size")
    assert hist.max <= 4
    assert registry.counter("server.batches_total") >= 3


def test_sharded_batch_scoring_matches_flat():
    state = _fresh_state()
    snapshot = state.current()
    rng = np.random.default_rng(11)
    Q = rng.standard_normal((5, snapshot.k))
    Qs = snapshot.scale(Q)
    flat, _ = snapshot.search(Qs)
    # Against the full fp64 matrix: the ledger's standard, 1e-12.
    for got, row in zip(flat, snapshot.score_batch(Q)):
        assert np.allclose(
            [s for _, s in got], np.sort(row)[::-1], rtol=0, atol=1e-12
        )
    # Ranked path against ranked path: the same bits however the batch's
    # rows are sharded — each range scored alone, merged as the router does.
    n = snapshot.n_documents
    for shards in (2, 3, n):
        per_range = [
            EpochSnapshot(0, snapshot.model, lo=lo, hi=hi).search(Qs)[0]
            for lo, hi in shard_bounds(n, shards)
        ]
        sharded = [
            merge_topk([found[qi] for found in per_range], n)
            for qi in range(len(Q))
        ]
        assert sharded == flat


# --------------------------------------------------------------------- #
# admission control: bounded queue, deadlines
# --------------------------------------------------------------------- #
def _slow_scorer(monkeypatch, seconds: float) -> None:
    """Make every batch flush take at least ``seconds``."""
    original = ServingState._score_batch

    def slow(self, snapshot, batch):
        time.sleep(seconds)
        return original(self, snapshot, batch)

    monkeypatch.setattr(ServingState, "_score_batch", slow)


def test_overload_rejected_not_queued(monkeypatch):
    registry.reset("server.")
    _slow_scorer(monkeypatch, 0.05)
    state = _fresh_state(max_batch=1)

    async def main():
        service = QueryService(state, ServerConfig(queue_depth=3))
        await service.start()
        results = await asyncio.gather(
            *(service.search(QUERIES[i % 6], top=2) for i in range(10)),
            return_exceptions=True,
        )
        await service.drain()
        return results

    results = asyncio.run(main())
    rejected = [r for r in results if isinstance(r, ServerOverloadError)]
    served = [r for r in results if isinstance(r, dict)]
    # All 10 admissions happen before the first slow batch resolves, so
    # exactly queue_depth requests fit and the rest bounce immediately.
    assert len(served) == 3
    assert len(rejected) == 7
    assert all(exc.reason == "queue_full" for exc in rejected)
    assert registry.counter("server.rejected_queue_full") == 7
    for response in served:
        assert response["results"]


def test_deadline_expires_in_queue(monkeypatch):
    registry.reset("server.")
    _slow_scorer(monkeypatch, 0.05)
    state = _fresh_state(max_batch=1)

    async def main():
        service = QueryService(state)
        await service.start()
        # Both enqueue in one tick; max_batch=1 makes the second wait out
        # the first's slow flush, which is longer than its deadline.
        first, late = (
            asyncio.ensure_future(service.search(QUERIES[0], top=2)),
            asyncio.ensure_future(
                service.search(QUERIES[1], top=2, timeout_ms=1.0)
            ),
        )
        with pytest.raises(DeadlineExceededError):
            await late
        assert (await first)["results"]
        await service.drain()

    asyncio.run(main())
    assert registry.counter("server.deadline_expired") == 1


# --------------------------------------------------------------------- #
# graceful drain
# --------------------------------------------------------------------- #
def test_drain_flushes_queue_then_rejects(monkeypatch):
    _slow_scorer(monkeypatch, 0.02)
    state = _fresh_state(max_batch=2)

    async def main():
        service = QueryService(state)
        await service.start()
        inflight = [
            asyncio.ensure_future(service.search(QUERIES[i % 6], top=3))
            for i in range(6)
        ]
        await asyncio.sleep(0)  # let every request pass admission
        await service.drain()
        # Every admitted request completed with a real result.
        responses = await asyncio.gather(*inflight)
        assert all(r["results"] for r in responses)
        # New work is refused with the draining (503) reason.
        with pytest.raises(ServerOverloadError) as info:
            await service.search(QUERIES[0])
        assert info.value.reason == "draining"

    asyncio.run(main())


# --------------------------------------------------------------------- #
# live updates: epochs, no torn reads
# --------------------------------------------------------------------- #
def test_live_add_under_query_load_has_consistent_epochs():
    # A small budget forces consolidation (recompute/SVD-update) along
    # the way, so the epoch swap is exercised across all three actions.
    state = _fresh_state(distortion_budget=0.05, max_batch=4)
    n0 = state.current().n_documents
    observations: list[tuple[int, int, int]] = []

    async def reader(service: QueryService):
        for i in range(40):
            response = await service.search(QUERIES[i % 6], top=4)
            top_index = max((j for j, _, _ in response["results"]), default=-1)
            observations.append(
                (response["epoch"], response["n_documents"], top_index)
            )
            await asyncio.sleep(0)

    async def writer(service: QueryService):
        for i in range(6):
            result = await service.add(
                [f"additional study of blood oxygen level {i}"]
            )
            assert result["epoch"] == i + 1
            await asyncio.sleep(0.002)

    async def main():
        service = QueryService(state)
        await service.start()
        await asyncio.gather(reader(service), writer(service))
        final = await service.search(QUERIES[0], top=3)
        await service.drain()
        return final

    final = asyncio.run(main())
    # Each add inserts exactly one document, so epoch e ↔ n0 + e: any
    # response pairing an epoch with the wrong count is a torn read.
    for epoch, n_documents, top_index in observations:
        assert n_documents == n0 + epoch
        assert top_index < n_documents
    # A single reader observes monotonically non-decreasing epochs.
    epochs = [e for e, _, _ in observations]
    assert epochs == sorted(epochs)
    assert final["epoch"] == 6
    assert final["n_documents"] == n0 + 6
    assert state.current().model.n_documents == n0 + 6


def test_read_only_state_rejects_add(med_model):
    state = ServingState.for_model(med_model)
    assert not state.writable

    async def main():
        service = QueryService(state, ServerConfig())
        await service.start()
        with pytest.raises(ReproError, match="read-only"):
            await service.add(["new document"])
        response = await service.search("blood age", top=3)
        await service.drain()
        return response

    assert asyncio.run(main())["n_documents"] == med_model.n_documents


# --------------------------------------------------------------------- #
# HTTP front end + blocking client
# --------------------------------------------------------------------- #
class _ServerThread:
    """Run service + HTTP server on a private loop in a worker thread."""

    def __init__(self, state, config, make_service=QueryService):
        # ``make_service(state, config)``: any ServiceBase — the cluster
        # front ends take a data directory (or tenant map) as ``state``.
        self.state = state
        self.config = config
        self.make_service = make_service
        self.port: int | None = None
        self.service: QueryService | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def drain(self) -> None:
        """Drain the service from the test thread (new requests → 503)."""
        asyncio.run_coroutine_threadsafe(
            self.service.drain(), self._loop
        ).result(timeout=30)

    def _run(self) -> None:
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            service = self.service = self.make_service(self.state, self.config)
            server = await start_http_server(service, "127.0.0.1", 0)
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            await self._stop.wait()
            server.close()
            await server.wait_closed()
            await service.drain()

        asyncio.run(main())

    def __enter__(self) -> "_ServerThread":
        self._thread.start()
        assert self._ready.wait(timeout=30), "server failed to start"
        return self

    def __exit__(self, *exc) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server failed to drain"


def test_http_roundtrip_search_add_health_stats():
    state = _fresh_state()
    engine = LSIRetrieval(state.current().model)
    n0 = state.current().n_documents
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)

        health = client.healthz()
        assert health["status"] == "ok"
        assert health["n_documents"] == n0

        for q in QUERIES[:3]:
            got = client.search_pairs(q, top=5)
            want = engine.search(q, top=5)
            assert [j for j, _ in got] == [j for j, _ in want]
            assert np.allclose(
                [c for _, c in got], [c for _, c in want], atol=1e-12
            )

        added = client.add(["renal oxygen study in children"])
        assert added["n_documents"] == n0 + 1
        assert added["epoch"] == 1
        follow_up = client.search("renal oxygen", top=3)
        assert follow_up["epoch"] >= 1
        assert follow_up["n_documents"] == n0 + 1

        stats = client.stats()
        assert stats["schema"] == "repro-obs/1"
        assert stats["metrics"]["counters"]["server.requests_total"] >= 4
        assert "server.queue_wait_seconds" in stats["metrics"]["histograms"]
        assert stats["server"]["writable"]


def test_http_error_mapping():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        # Unknown route → 404 → ReproError.
        with pytest.raises(ReproError, match="404"):
            client._request("GET", "/nope")
        # Missing query field → 400.
        with pytest.raises(ReproError, match="400"):
            client._request("POST", "/search", {})
        # Malformed JSON body → 400.
        import http.client as http_client

        conn = http_client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        conn.request("POST", "/search", body=b"{not json")
        assert conn.getresponse().status == 400
        conn.close()


def test_http_add_rejects_bad_doc_ids_with_400():
    state = _fresh_state()
    held = state.current().model.doc_ids[0]
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        texts = ["renal oxygen study", "fasting growth hormone"]
        for bad in ("xy", [7, None], ["same", "same"], [held, "fresh"], ["x"]):
            with pytest.raises(ReproError, match="400"):
                client._request("POST", "/add", {"texts": texts, "doc_ids": bad})
        assert state.current().epoch == 0
        added = client.add(texts, doc_ids=["new-a", "new-b"])
        assert added["epoch"] == 1
        assert state.current().model.doc_ids[-2:] == ["new-a", "new-b"]


_PAD = b"a" * (70 * 1024)  # past the 64 KiB line limit


@pytest.mark.parametrize(
    "raw, error",
    [
        (
            b"POST /search HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            "invalid Content-Length header",
        ),
        (
            b"GET /healthz HTTP/1.1\r\nX-Pad: " + _PAD + b"\r\n\r\n",
            "header line exceeds 65536 bytes",
        ),
        (
            b"GET /" + _PAD + b" HTTP/1.1\r\n\r\n",
            "request line exceeds 65536 bytes",
        ),
        (
            b"GARBAGE\r\n\r\n",
            "malformed request line: expected METHOD PATH",
        ),
    ],
    ids=[
        "negative-content-length", "long-header-line", "long-request-line",
        "one-token-request-line",
    ],
)
def test_http_framing_errors_are_400(caplog, raw, error):
    import json
    import socket

    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.settimeout(10)
            sock.sendall(raw)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 "), reply[:200]
        assert b"Connection: close" in head
        payload = json.loads(body)
        assert payload["error"] == error
        # The one id a rejected request is correlated by, in both places.
        assert f"X-Request-Id: {payload['request_id']}\r\n".encode() in (
            head + b"\r\n"
        )
        # The server is unharmed: the next connection answers.
        assert ServerClient(port=server.port).healthz()["status"] == "ok"
    assert not [r for r in caplog.records if r.name == "asyncio"]


def test_http_probes_validation():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        for bad in (0, -3, True, 2.5, "many"):
            with pytest.raises(ReproError, match="400"):
                client._request(
                    "POST", "/search", {"query": QUERIES[0], "probes": bad}
                )
        with pytest.raises(ReproError, match="400"):
            client._request(
                "POST", "/search", {"query": QUERIES[0], "exact": "yes"}
            )


def test_probes_and_exact_are_checked_on_every_path():
    """In process and on a shard worker, a non-positive or boolean
    ``probes`` and a non-boolean ``exact`` fail with HTTP's 400 message
    instead of being served with one probe."""
    from repro.cluster.plan import ShardPlan
    from repro.cluster.worker import ShardWorker

    state = _fresh_state(n_clusters=4)
    bad = [({"probes": p}, "'probes' must be a positive integer")
           for p in (0, -3, True)]
    bad.append(({"exact": "yes"}, "'exact' must be a boolean"))

    async def in_process():
        service = QueryService(state, ServerConfig())
        await service.start()
        errors = []
        for kwargs, _ in bad:
            with pytest.raises(ReproError) as excinfo:
                await service.search(QUERIES[0], top=3, **kwargs)
            errors.append(str(excinfo.value))
        await service.drain()
        return errors

    assert asyncio.run(in_process()) == [message for _, message in bad]
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        for kwargs, message in bad:
            with pytest.raises(ReproError, match=message):
                client._request("POST", "/search", {"query": QUERIES[0], **kwargs})
    model = state.current().model
    worker = ShardWorker(model, ShardPlan.compute(model.n_documents, 1).shards[0])
    for kwargs, message in bad:
        frame = {"op": "score", "queries": [[0.0] * model.k], **kwargs}
        assert worker.handle(frame) == {"error": message}


def test_http_probes_roundtrip_and_full_probe_parity():
    # Through the whole stack — HTTP parse, micro-batcher ANN grouping,
    # snapshot probe — a full-probe request answers element-identically
    # to the exact scan, and a bounded one reports its ann stats block.
    state = _fresh_state(n_clusters=4)
    quantizer = state.current().ann
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        assert client.healthz()["ann"] is True
        for q in QUERIES[:3]:
            exact = client.search(q, top=5, exact=True)
            full = client.search(q, top=5, probes=quantizer.n_clusters)
            assert full["results"] == exact["results"]
            assert full["ann"]["cells_probed"] == quantizer.n_clusters
            assert "ann" not in exact

            bounded = client.search(q, top=5, probes=1)
            assert bounded["ann"]["probes"] == 1
            assert bounded["ann"]["candidates"] <= state.current().n_documents
            got = {j for j, _, _ in bounded["results"]}
            assert got <= {j for j, _, _ in client.search(q)["results"]}


def test_request_probes_applied_and_exact_escape_hatch():
    state = _fresh_state(n_clusters=4)
    registry.reset("ann.")
    with _ServerThread(state, ServerConfig()) as server:
        client = ServerClient(port=server.port)
        assert "default_probes" not in client.healthz()
        assert "ann" not in client.search(QUERIES[0], top=5)
        probed = client.search(QUERIES[0], top=5, probes=2)
        assert probed["ann"]["probes"] == 2
        exact = client.search(QUERIES[0], top=5, probes=2, exact=True)
        assert "ann" not in exact


def test_http_client_reuses_keep_alive_connection():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        with ServerClient(port=server.port) as client:
            client.healthz()
            conn = client._local.conn
            assert conn is not None
            client.healthz()
            client.search(QUERIES[0], top=3)
            # Same pooled connection object served all three calls
            # (pooling is per thread; this is the only thread).
            assert client._local.conn is conn


def test_http_client_metrics_and_draining_flag():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        with ServerClient(port=server.port) as client:
            client.search(QUERIES[0], top=3)
            health = client.healthz()
            assert health["draining"] is False
            metrics = client.metrics()
            assert metrics["counters"]["server.requests_total"] >= 1
            assert "server.queue_wait_seconds" in metrics["histograms"]
            # /metrics is the bare registry dump — no server table.
            assert "server" not in metrics


def test_healthz_reports_draining_after_drain():
    state = _fresh_state()

    async def main():
        service = QueryService(state, ServerConfig())
        await service.start()
        assert service.healthz()["draining"] is False
        await service.drain()
        health = service.healthz()
        assert health["draining"] is True
        assert health["status"] == "draining"

    asyncio.run(main())


def test_shutdown_closes_idle_keep_alive_connection():
    # A client holding a keep-alive connection open between requests
    # must not keep a handler alive past shutdown: closing the server
    # ends the idle connection (the client reads EOF), and nothing is
    # left for asyncio.run to cancel — a cancelled handler task is
    # reported as "Exception in callback ... CancelledError".
    import json

    state = _fresh_state()
    errors: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        service = QueryService(state, ServerConfig())
        server = await start_http_server(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        body = json.dumps({"query": QUERIES[0], "top": 3}).encode()
        writer.write(
            b"POST /search HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body)
        )
        head = await reader.readuntil(b"\r\n\r\n")
        assert b"Connection: keep-alive" in head
        length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        await reader.readexactly(length)
        server.close()
        await server.wait_closed()
        await service.drain()
        try:
            return await asyncio.wait_for(reader.read(), timeout=5)
        finally:
            writer.close()

    assert asyncio.run(main()) == b""
    assert errors == []


class _OneShotKeepAliveServer:
    """A raw HTTP server that *advertises* keep-alive but closes the
    socket after every response — the classic stale-reuse race the
    client must absorb with its single transparent retry."""

    def __init__(self):
        import socket

        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.accepted = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        body = b'{"status": "ok"}'
        response = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: keep-alive\r\n\r\n" + body
        )
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                if data:
                    conn.sendall(response)
            # ...and the socket is now closed, despite the header.

    def close(self) -> None:
        self.sock.close()


def test_http_client_retries_stale_keep_alive_once():
    server = _OneShotKeepAliveServer()
    try:
        with ServerClient(port=server.port) as client:
            # First call: fresh connection, succeeds, gets pooled.
            assert client.healthz() == {"status": "ok"}
            # Second call: the pooled socket is dead — the client must
            # notice, retry once on a fresh connection, and succeed.
            assert client.healthz() == {"status": "ok"}
        assert server.accepted == 2
    finally:
        server.close()


def test_http_client_does_not_retry_fresh_connection_failures():
    import socket

    # Reserve a port with no listener: connecting must fail.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()
    client = ServerClient(port=dead_port, timeout=2.0)
    with pytest.raises(ConnectionError):
        client.healthz()


# --------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------- #
def test_cli_serve_parser_flags():
    args = build_parser().parse_args(
        [
            "serve", "docs", "--port", "0", "--max-batch", "8",
            "--queue-depth", "16",
        ]
    )
    assert args.command == "serve"
    assert args.port == 0
    assert args.max_batch == 8
    assert args.queue_depth == 16


def test_cli_slowlog_parser_flags(tmp_path):
    args = build_parser().parse_args(
        ["serve", "docs", "--slow-ms", "75",
         "--slowlog", str(tmp_path / "s.jsonl")]
    )
    assert args.slow_ms == 75.0
    assert args.slowlog == tmp_path / "s.jsonl"
    args = build_parser().parse_args(
        ["cluster", "serve", "--data-dir", "d", "--slow-ms", "0"]
    )
    assert args.slow_ms == 0.0
    assert args.slowlog is None


# --------------------------------------------------------------------- #
# Observability over HTTP: request ids, traces, Prometheus, slow log
# --------------------------------------------------------------------- #
import re as _re

from repro.obs.tracing import enable_tracing
from tests.test_obs import clear_spans

_HEX_ID = _re.compile(r"[0-9a-f]{32}")


def test_request_id_echoed_and_minted():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        with ServerClient(port=server.port) as client:
            client.search(QUERIES[0], top=3, request_id="req-abc.1")
            assert client.last_request_id == "req-abc.1"
            # No caller id → the server mints one and still echoes it.
            client.search(QUERIES[0], top=3)
            assert _HEX_ID.fullmatch(client.last_request_id)
            # A malformed id is replaced, not echoed verbatim.
            client._request(
                "GET", "/healthz", request_id="not a valid id!"
            )
            assert client.last_request_id != "not a valid id!"
            assert _HEX_ID.fullmatch(client.last_request_id)


def test_request_id_surfaces_on_error_responses():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        with ServerClient(port=server.port) as client:
            # 404: id echoed in the header, the exception, and its message.
            with pytest.raises(ReproError, match=r"request_id=req-404") as ei:
                client._request("GET", "/nope", request_id="req-404")
            assert ei.value.request_id == "req-404"
            assert client.last_request_id == "req-404"
            # 504: deadline spent in the queue still gets the echo.
            with pytest.raises(DeadlineExceededError) as ei:
                client.search(
                    QUERIES[0], timeout_ms=0.0001, request_id="req-504"
                )
            assert ei.value.request_id == "req-504"
            # 503: draining rejections stay correlatable too.
            server.drain()
            with pytest.raises(ServerOverloadError) as ei:
                client.search(QUERIES[0], request_id="req-503")
            assert ei.value.reason == "draining"
            assert ei.value.request_id == "req-503"


def test_metrics_prom_endpoint_renders_text_exposition():
    state = _fresh_state()
    with _ServerThread(state, ServerConfig()) as server:
        with ServerClient(port=server.port) as client:
            client.search(QUERIES[0], top=3)
            text = client.metrics_prom()
            assert "# TYPE repro_server_requests_total_total counter" in text
            assert 'worker="server"' in text
            assert 'repro_server_request_seconds{quantile="0.95"' in text
            # The JSON shape at plain /metrics is untouched.
            metrics = client.metrics()
            assert set(metrics) == {"counters", "gauges", "histograms"}


def test_trace_endpoint_assembles_request_spans():
    state = _fresh_state()
    clear_spans()
    prev = enable_tracing(True)
    try:
        with _ServerThread(state, ServerConfig()) as server:
            with ServerClient(port=server.port) as client:
                client.search(QUERIES[0], top=3, request_id="trace-me-1")
                trace = client.trace("trace-me-1")
        assert trace["trace_id"] == "trace-me-1"
        names = {s["name"] for s in trace["spans"]}
        assert "http.request" in names
        # The batch span serves many traces, so it joins via trace_ids.
        assert "server.batch" in names
        (http_span,) = [
            s for s in trace["spans"] if s["name"] == "http.request"
        ]
        assert http_span["trace_id"] == "trace-me-1"
        assert http_span["attrs"]["request_id"] == "trace-me-1"
    finally:
        enable_tracing(prev)
        clear_spans()


def test_slow_query_log_records_over_threshold_requests():
    state = _fresh_state()
    config = ServerConfig(slow_ms=0.0001)
    with _ServerThread(state, config) as server:
        with ServerClient(port=server.port) as client:
            response = client.search(QUERIES[0], top=3, request_id="slow-1")
            stats = client.stats()
            health = client.healthz()
    # Slow-log evidence rides on the request, never in the response body.
    assert set(response) == {"epoch", "n_documents", "results"}
    slow = stats["slow_queries"]
    assert slow, "every request crosses a 0.0001ms threshold"
    assert slow[-1]["trace_id"] == "slow-1"
    assert slow[-1]["duration_ms"] > 0
    # The scheduler's evidence: the request was scored alone, and its
    # own queue wait is part of (so no longer than) its duration.
    assert slow[-1]["batch_size"] == 1
    assert 0 <= slow[-1]["queue_wait_ms"] <= slow[-1]["duration_ms"]
    assert health["slowlog"]["records"] >= 1
    assert stats["metrics"]["counters"]["server.slow_queries_total"] >= 1


def test_slow_query_log_records_effective_probes():
    # The slow log records the probe count a query ran with: none for
    # the exact scan, even when ``exact`` overrode a request's probes.
    state = _fresh_state(n_clusters=4)
    config = ServerConfig(slow_ms=0.0001)
    with _ServerThread(state, config) as server:
        with ServerClient(port=server.port) as client:
            assert client.search(QUERIES[0], top=3, probes=3)["ann"]["probes"] == 3
            client.search(QUERIES[0], top=3)
            client.search(QUERIES[0], top=3, probes=2, exact=True)
            slow = client.stats()["slow_queries"]
    assert [entry["probes"] for entry in slow[-3:]] == [3, None, None]


def test_slow_query_log_disabled_below_threshold():
    state = _fresh_state()
    config = ServerConfig(slow_ms=0.0)
    with _ServerThread(state, config) as server:
        with ServerClient(port=server.port) as client:
            client.search(QUERIES[0], top=3)
            stats = client.stats()
    assert stats["slow_queries"] == []
