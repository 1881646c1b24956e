"""The work-conserving scheduler's contracts (repro.server.batching).

Deterministic by construction — no sleeps, no wall-clock thresholds.
Load is simulated by holding the scoring thread on a
:class:`threading.Event`: whatever is submitted while the flush is held
is, by definition, "what piled up behind the flush in flight".

* **No timer** — a lone search on an idle service never arms
  ``call_later`` / ``call_at`` from ``server/batching.py``;
* **Batches are the pile-up** — requests submitted during a held flush
  form the next batch (capped at ``max_batch``, arrival order kept),
  answer element-identically to solo calls, still honour deadlines and
  ``drain()``;
* **A bad request fails alone** — over HTTP it is a 400 naming the
  field, in process only its own future raises;
* **One scoring thread per batcher** — created on first use, joined by
  ``stop()`` (hence by drain and tenant detach); ``/add`` never runs on
  it.
"""

from __future__ import annotations

import asyncio
import threading
import traceback

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, ReproError, ServerOverloadError
from repro.obs.metrics import registry
from repro.server import (
    MicroBatcher,
    QueryService,
    SearchRequest,
    ServerClient,
    ServerConfig,
)

from tests.test_server import QUERIES, _fresh_state, _pairs, _ServerThread
from tests.test_tenancy import TENANT_QUERIES, _registry


class _HeldScorer:
    """Hold the first flush on the scoring thread until ``release``.

    ``batches`` records every batch the scorer saw, as the queries in
    the order they were handed over (= arrival order).
    """

    def __init__(self, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches: list[list] = []
        original = MicroBatcher._score_batch

        def gated(batcher, snapshot, batch):
            self.batches.append([req.query for req in batch])
            if len(self.batches) == 1:
                self.entered.set()
                assert self.release.wait(30), "test never released the scorer"
            return original(batcher, snapshot, batch)

        monkeypatch.setattr(MicroBatcher, "_score_batch", gated)

    async def hold_first(self, service: QueryService, query) -> asyncio.Future:
        """Submit ``query`` and return once its flush is held in flight."""
        first = asyncio.ensure_future(service.search(query, top=3))
        while not self.entered.is_set():
            await asyncio.sleep(0)  # a yield, not a wait
        return first


async def _submit(service: QueryService, calls) -> list[asyncio.Future]:
    """Start one search per ``(query, kwargs)`` and let each enqueue."""
    before = service.admission.pending
    futures = [
        asyncio.ensure_future(service.search(q, **kw)) for q, kw in calls
    ]
    await asyncio.sleep(0)
    assert service.admission.pending == before + len(calls)
    return futures


# --------------------------------------------------------------------- #
# (a) no timer on the idle path
# --------------------------------------------------------------------- #
def test_lone_search_arms_no_timer_from_batching(monkeypatch):
    state = _fresh_state()
    armed: list[str] = []

    async def main():
        loop = asyncio.get_running_loop()
        for name in ("call_later", "call_at"):
            original = getattr(loop, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                stack = traceback.extract_stack()
                if any(
                    frame.filename.replace("\\", "/").endswith(
                        "server/batching.py"
                    )
                    for frame in stack
                ):
                    armed.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(loop, name, counting)
        service = QueryService(state)
        await service.start()
        response = await service.search(QUERIES[0], top=3)
        await service.drain()
        return response

    assert asyncio.run(main())["results"]
    assert armed == []


# --------------------------------------------------------------------- #
# (b) the batch is what piled up behind the flush in flight
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "max_batch, want_sizes", [(32, [5]), (4, [4, 1])]
)
def test_requests_during_a_flight_form_the_next_batch(
    monkeypatch, max_batch, want_sizes
):
    held = _HeldScorer(monkeypatch)
    state = _fresh_state()
    arrivals = [f"{QUERIES[i % 6]} {i}" for i in range(5)]

    async def main():
        service = QueryService(state, ServerConfig(max_batch=max_batch))
        await service.start()
        first = await held.hold_first(service, QUERIES[0])
        waiting = await _submit(service, [(q, {"top": 3}) for q in arrivals])
        registry.reset("server.batch_size")
        held.release.set()
        await asyncio.gather(first, *waiting)
        await service.drain()

    asyncio.run(main())
    hist = registry.histogram("server.batch_size")
    assert hist.count == len(want_sizes)
    assert (hist.max, hist.min) == (max(want_sizes), min(want_sizes))
    assert hist.sum == 5
    # Arrival order survives the queue and the max_batch split.
    assert [len(b) for b in held.batches[1:]] == want_sizes
    assert [q for batch in held.batches[1:] for q in batch] == arrivals


# --------------------------------------------------------------------- #
# (d) deadlines still expire behind a held flush
# --------------------------------------------------------------------- #
def test_deadline_expires_behind_a_held_flush(monkeypatch):
    registry.reset("server.")
    held = _HeldScorer(monkeypatch)
    state = _fresh_state()

    async def main():
        service = QueryService(state)
        await service.start()
        first = await held.hold_first(service, QUERIES[0])
        (late,) = await _submit(
            service, [(QUERIES[1], {"top": 2, "timeout_ms": 1e-6})]
        )
        held.release.set()
        with pytest.raises(DeadlineExceededError):
            await late
        assert (await first)["results"]
        await service.drain()

    asyncio.run(main())
    assert registry.counter("server.deadline_expired") == 1
    # The expired request never reached the scorer.
    assert held.batches == [[QUERIES[0]]]


# --------------------------------------------------------------------- #
# (e) drain during a held flush
# --------------------------------------------------------------------- #
def test_drain_during_a_held_flush_answers_queue_then_rejects(monkeypatch):
    held = _HeldScorer(monkeypatch)
    state = _fresh_state()

    async def main():
        service = QueryService(state, ServerConfig(max_batch=2))
        await service.start()
        first = await held.hold_first(service, QUERIES[0])
        queued = await _submit(
            service, [(QUERIES[i], {"top": 3}) for i in (1, 2, 3)]
        )
        draining = asyncio.ensure_future(service.drain())
        await asyncio.sleep(0)
        assert service.draining and not draining.done()
        # New work bounces while the queued work is still waiting.
        with pytest.raises(ServerOverloadError) as info:
            await service.search(QUERIES[4])
        assert info.value.reason == "draining"
        held.release.set()
        await draining
        # drain() returned only after everything queued was answered.
        assert all(f.done() for f in (first, *queued))
        return [f.result() for f in (first, *queued)]

    assert all(r["results"] for r in asyncio.run(main()))


# --------------------------------------------------------------------- #
# (f) a load-formed batch answers like solo calls
# --------------------------------------------------------------------- #
def test_load_formed_batch_identical_to_solo_calls(monkeypatch):
    held = _HeldScorer(monkeypatch)
    state = _fresh_state()
    calls = [
        (QUERIES[1], {}),
        (QUERIES[2], {"top": 5}),
        (QUERIES[3], {"top": 1}),
        (QUERIES[4], {"threshold": 0.2}),
        (QUERIES[5], {"top": 3, "threshold": 0.1}),
    ]

    async def main():
        service = QueryService(state)
        await service.start()
        first = await held.hold_first(service, QUERIES[0])
        waiting = await _submit(service, calls)
        held.release.set()
        batched = await asyncio.gather(*waiting)
        await first
        solo = [await service.search(q, **kw) for q, kw in calls]
        await service.drain()
        return batched, solo

    batched, solo = asyncio.run(main())
    assert [len(b) for b in held.batches[:2]] == [1, 5]
    assert all(len(b) == 1 for b in held.batches[2:])
    for (q, kw), got, want in zip(calls, batched, solo):
        got, want = _pairs(got), _pairs(want)
        assert [j for j, _ in got] == [j for j, _ in want], (q, kw)
        assert np.allclose(
            [c for _, c in got], [c for _, c in want], atol=1e-12
        ), (q, kw)


# --------------------------------------------------------------------- #
# a malformed request fails alone
# --------------------------------------------------------------------- #
BAD_SEARCHES = [
    {"query": 5},
    {"query": None},
    {"query": 1.5},
    {"query": True},
    {"query": ["blood", 7]},
    {"top": "x"},
    {"top": 2.5},
    {"top": True},
    {"top": -1},
    {"threshold": "a"},
    {"threshold": float("nan")},
]


@pytest.mark.parametrize("bad", BAD_SEARCHES, ids=repr)
def test_malformed_request_fails_only_itself(bad):
    state = _fresh_state()
    bad_call = {"query": QUERIES[1], **bad}
    field = next(iter(bad))

    async def main():
        service = QueryService(state)
        await service.start()
        solo = await service.search(QUERIES[0], top=5)
        registry.reset("server.batch_size")
        together = await asyncio.gather(
            service.search(bad_call.pop("query"), **bad_call),
            service.search(QUERIES[0], top=5),
            return_exceptions=True,
        )
        await service.drain()
        return solo, together

    solo, (bad_result, good_result) = asyncio.run(main())
    # The two really were co-batched...
    assert registry.histogram("server.batch_size").max == 2
    # ...the bad one raised its own typed error, naming the field...
    assert isinstance(bad_result, ReproError), bad_result
    assert f"'{field}'" in str(bad_result)
    # ...and the good one answered exactly as it does alone.
    assert not isinstance(good_result, BaseException), good_result
    assert good_result["results"] == solo["results"]


def test_http_malformed_search_fields_are_400_naming_the_field():
    state = _fresh_state()
    bodies = [
        (field, {"query": QUERIES[0], **{field: value}})
        for field, value in [
            ("query", 5), ("query", None), ("query", 1.5), ("query", True),
            ("query", ["blood", 7]),
            ("top", "x"), ("top", 2.5), ("top", True), ("top", -1),
            ("threshold", "a"), ("threshold", True),
            ("timeout_ms", "x"), ("timeout_ms", 0), ("timeout_ms", -5),
        ]
    ]
    with _ServerThread(state, ServerConfig()) as server:
        with ServerClient(port=server.port) as client:
            for field, body in bodies:
                with pytest.raises(ReproError, match="400") as info:
                    client._request("POST", "/search", body)
                assert f"'{field}'" in str(info.value), body
            # Well-formed edge values still answer.
            ok = client._request(
                "POST", "/search",
                {"query": QUERIES[0].split(), "top": 0, "threshold": None,
                 "timeout_ms": 5000},
            )
            assert ok["results"] == []


# --------------------------------------------------------------------- #
# scoring-thread lifecycle
# --------------------------------------------------------------------- #
def test_back_to_back_searches_use_one_scoring_thread():
    state = _fresh_state()

    async def main():
        service = QueryService(state)
        await service.start()
        before = set(threading.enumerate())
        idle = threading.active_count()
        peak = 0
        for i in range(200):
            await service.search(QUERIES[i % 6], top=3)
            peak = max(peak, threading.active_count())
        (scorer,) = set(threading.enumerate()) - before
        assert scorer.name.startswith("repro-scorer")
        assert peak <= idle + 1
        await service.drain()
        # stop() joined it.
        assert not scorer.is_alive()
        assert threading.active_count() == idle

    asyncio.run(main())


def test_batcher_stop_joins_its_thread():
    state = _fresh_state()

    async def main():
        batcher = MicroBatcher(state)
        batcher.start()
        before = set(threading.enumerate())
        request = SearchRequest(
            query=QUERIES[0],
            top=3,
            future=asyncio.get_running_loop().create_future(),
        )
        batcher.submit(request)
        assert (await request.future)["results"]
        (scorer,) = set(threading.enumerate()) - before
        await batcher.stop()
        assert not scorer.is_alive()
        await batcher.stop()  # idempotent

    asyncio.run(main())


def test_attach_query_detach_cycles_do_not_grow_threads():
    reg = _registry(tenants=("alpha", "beta"), max_resident=1)

    async def main():
        service = QueryService(reg)
        await service.start()
        idle = threading.active_count()
        for cycle in range(20):
            tid = ("alpha", "beta")[cycle % 2]
            response = await service.search(
                TENANT_QUERIES[tid], top=3, tenant=tid
            )
            assert response["tenant"] == tid
            # One resident tenant, hence one scorer: the evicted
            # tenant's thread was joined by its detach hook.
            assert list(reg.resident_states()) == [tid]
            assert threading.active_count() <= idle + 1, cycle
        await service.drain()
        assert threading.active_count() == idle

    asyncio.run(main())


def test_add_does_not_run_on_or_wait_for_the_scoring_thread(monkeypatch):
    held = _HeldScorer(monkeypatch)
    state = _fresh_state()
    n0 = state.current().n_documents
    ran_on: list[str] = []
    original = state.add_texts

    def recording(texts, doc_ids=None):
        ran_on.append(threading.current_thread().name)
        return original(texts, doc_ids)

    monkeypatch.setattr(state, "add_texts", recording)

    async def main():
        service = QueryService(state)
        await service.start()
        first = await held.hold_first(service, QUERIES[0])
        # The scorer is busy (held); the writer must finish regardless.
        added = await service.add(["renal oxygen study in children"])
        assert not first.done()
        held.release.set()
        await first
        await service.drain()
        return added

    assert asyncio.run(main())["n_documents"] == n0 + 1
    assert len(ran_on) == 1 and not ran_on[0].startswith("repro-scorer")
