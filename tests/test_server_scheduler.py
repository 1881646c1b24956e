"""The work-conserving scheduler's contracts (repro.server.state).

Deterministic by construction — no sleeps, no wall-clock thresholds.
The scorer runs on the event loop, so nothing else runs while a batch
is scored: load is simulated by starting requests from *inside* a flush
(:class:`_Arrivals`) — whatever is submitted there is, by definition,
"what piled up behind the flush in flight", and it enqueues when the
flush yields.

* **No timer** — a lone search on an idle service never arms
  ``call_later`` / ``call_at`` from ``server/state.py``;
* **Batches are the pile-up** — requests arriving during a flush form
  the next batch (capped at ``max_batch``, arrival order kept), answer
  element-identically to solo calls, still honour deadlines and
  ``drain()``;
* **One yield per flush** — a queue deeper than ``max_batch`` resolves
  batch by batch, its replies going out between flushes;
* **A bad request fails alone** — over HTTP it is a 400 naming the
  field, in process only its own future raises;
* **No scoring thread** — searching starts no thread (one tenant or a
  churn of attaches and detaches); ``/add`` runs off the loop, so
  searches flush while a writer works.
"""

from __future__ import annotations

import asyncio
import threading
import time
import traceback

import numpy as np
import pytest

from repro.errors import DeadlineExceededError, ReproError, ServerOverloadError
from repro.obs.metrics import registry
from repro.server.client import ServerClient
from repro.server.service import QueryService, ServerConfig
from repro.server.state import EpochSnapshot, ServingState

from tests.test_server import QUERIES, _fresh_state, _pairs, _ServerThread
from tests.test_tenancy import TENANT_QUERIES, _registry


class _Arrivals:
    """Call ``start`` from inside the first flush, while it holds the loop.

    ``batches`` records every batch the scorer saw, as the queries in
    the order they were handed over (= arrival order).
    """

    def __init__(self, monkeypatch):
        self.batches: list[list] = []
        self._start = None
        original = ServingState._score_batch

        def scoring(state, snapshot, batch):
            self.batches.append([req.query for req in batch])
            if self._start is not None:
                start, self._start = self._start, None
                self._started = start()
                self._flushed.set()
            return original(state, snapshot, batch)

        monkeypatch.setattr(ServingState, "_score_batch", scoring)

    async def during_first(self, service: QueryService, query, start):
        """Search ``query`` and call ``start()`` inside its flush.

        Returns ``(the search's future, what start returned)`` once the
        flush has yielded: tasks ``start`` created have taken their
        first step (admitted, queued), and the next batch is not formed
        yet.
        """
        self._flushed = asyncio.Event()
        self._start = start
        first = asyncio.ensure_future(service.search(query, top=3))
        await self._flushed.wait()
        return first, self._started


def _searches(service: QueryService, calls) -> list[asyncio.Future]:
    """Start one search per ``(query, kwargs)``."""
    return [asyncio.ensure_future(service.search(q, **kw)) for q, kw in calls]


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
                        "server/state.py"
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
    arriving = _Arrivals(monkeypatch)
    state = _fresh_state(max_batch=max_batch)
    arrivals = [f"{QUERIES[i % 6]} {i}" for i in range(5)]

    async def main():
        service = QueryService(state)
        await service.start()
        registry.reset("server.batch_size")
        first, waiting = await arriving.during_first(
            service,
            QUERIES[0],
            lambda: _searches(service, [(q, {"top": 3}) for q in arrivals]),
        )
        # Every arrival is queued before the next batch forms.
        assert service.admission.pending == 1 + len(arrivals)
        await asyncio.gather(first, *waiting)
        await service.drain()

    asyncio.run(main())
    hist = registry.histogram("server.batch_size")
    assert hist.count == 1 + len(want_sizes)
    assert (hist.max, hist.sum) == (max(want_sizes), 1 + 5)
    # Arrival order survives the queue and the max_batch split.
    assert [len(b) for b in arriving.batches[1:]] == want_sizes
    assert [q for batch in arriving.batches[1:] for q in batch] == arrivals


# --------------------------------------------------------------------- #
# (c) one yield per flush: a deep queue answers batch by batch
# --------------------------------------------------------------------- #
def test_deep_queue_resolves_batch_by_batch(monkeypatch):
    max_batch = 4
    replies: list[asyncio.Future] = []
    done_at_flush: list[list[bool]] = []
    original = ServingState._score_batch

    def scoring(state, snapshot, batch):
        done_at_flush.append([f.done() for f in replies])
        return original(state, snapshot, batch)

    monkeypatch.setattr(ServingState, "_score_batch", scoring)
    state = _fresh_state(max_batch=max_batch)

    async def main():
        service = QueryService(state)
        await service.start()
        replies.extend(
            _searches(
                service,
                [(f"{QUERIES[i % 6]} {i}", {"top": 3})
                 for i in range(3 * max_batch)],
            )
        )
        await asyncio.gather(*replies)
        await service.drain()

    asyncio.run(main())
    assert len(done_at_flush) == 3
    # The first batch's replies went out before the third batch was
    # scored: the scheduler yields between flushes instead of scoring
    # the whole backlog in one go.
    assert all(done_at_flush[2][:max_batch])
    assert not any(done_at_flush[0])


# --------------------------------------------------------------------- #
# (d) deadlines still expire behind a flush in flight
# --------------------------------------------------------------------- #
def test_deadline_expires_behind_a_held_flush(monkeypatch):
    registry.reset("server.")
    arriving = _Arrivals(monkeypatch)
    state = _fresh_state()

    async def main():
        service = QueryService(state)
        await service.start()
        first, (late,) = await arriving.during_first(
            service,
            QUERIES[0],
            lambda: _searches(
                service, [(QUERIES[1], {"top": 2, "timeout_ms": 1e-6})]
            ),
        )
        with pytest.raises(DeadlineExceededError):
            await late
        assert (await first)["results"]
        await service.drain()

    asyncio.run(main())
    assert registry.counter("server.deadline_expired") == 1
    # The expired request never reached the scorer.
    assert arriving.batches == [[QUERIES[0]]]


# --------------------------------------------------------------------- #
# (e) drain during a flush in flight
# --------------------------------------------------------------------- #
def test_drain_during_a_held_flush_answers_queue_then_rejects(monkeypatch):
    arriving = _Arrivals(monkeypatch)
    state = _fresh_state(max_batch=2)

    async def main():
        service = QueryService(state)
        await service.start()

        def arrive_then_drain():
            queued = _searches(
                service, [(QUERIES[i], {"top": 3}) for i in (1, 2, 3)]
            )
            return queued, asyncio.ensure_future(service.drain())

        first, (queued, draining) = await arriving.during_first(
            service, QUERIES[0], arrive_then_drain
        )
        assert service.draining and not draining.done()
        assert not any(f.done() for f in queued)
        # New work bounces while the queued work is still waiting.
        with pytest.raises(ServerOverloadError) as info:
            await service.search(QUERIES[4])
        assert info.value.reason == "draining"
        await draining
        # drain() returned only after everything queued was answered.
        assert all(f.done() for f in (first, *queued))
        return [f.result() for f in (first, *queued)]

    assert all(r["results"] for r in asyncio.run(main()))
    assert [len(b) for b in arriving.batches] == [1, 2, 1]


# --------------------------------------------------------------------- #
# (f) a load-formed batch answers like solo calls
# --------------------------------------------------------------------- #
def test_load_formed_batch_identical_to_solo_calls(monkeypatch):
    arriving = _Arrivals(monkeypatch)
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
        first, waiting = await arriving.during_first(
            service, QUERIES[0], lambda: _searches(service, calls)
        )
        batched = await asyncio.gather(*waiting)
        await first
        solo = [await service.search(q, **kw) for q, kw in calls]
        await service.drain()
        return batched, solo

    batched, solo = asyncio.run(main())
    assert [len(b) for b in arriving.batches[:2]] == [1, 5]
    assert all(len(b) == 1 for b in arriving.batches[2:])
    for (q, kw), got, want in zip(calls, batched, solo):
        got, want = _pairs(got), _pairs(want)
        assert [j for j, _ in got] == [j for j, _ in want], (q, kw)
        assert np.allclose(
            [c for _, c in got], [c for _, c in want], atol=1e-12
        ), (q, kw)


# --------------------------------------------------------------------- #
# server.batch_gemm_seconds times the scan, not the projection
# --------------------------------------------------------------------- #
def test_batch_gemm_seconds_excludes_projection(monkeypatch):
    slow = 0.1
    original = EpochSnapshot.project

    def slow_project(snapshot, query):
        time.sleep(slow)
        return original(snapshot, query)

    monkeypatch.setattr(EpochSnapshot, "project", slow_project)
    state = _fresh_state()

    async def main():
        service = QueryService(state)
        await service.start()
        registry.reset("server.batch_gemm_seconds")
        response = await service.search(QUERIES[0], top=3, exact=True)
        await service.drain()
        return response

    assert asyncio.run(main())["results"]
    hist = registry.histogram("server.batch_gemm_seconds")
    assert hist.count == 1
    # The slow projection ran, but outside the histogram's clock.
    assert hist.sum < slow


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
# no scoring thread
# --------------------------------------------------------------------- #
def test_back_to_back_searches_start_no_thread():
    state = _fresh_state()

    async def main():
        service = QueryService(state)
        await service.start()
        before = set(threading.enumerate())
        for i in range(200):
            await service.search(QUERIES[i % 6], top=3)
            assert set(threading.enumerate()) == before, i
        await service.drain()
        assert set(threading.enumerate()) == before

    asyncio.run(main())


def test_bare_state_starts_no_thread_and_drains_twice():
    """A state driven directly, with no front end: built outside any
    loop, started, searched, drained twice (idempotent) — and started
    again on a second loop."""
    state = _fresh_state()

    async def main():
        await state.start()
        before = set(threading.enumerate())
        payload, evidence = await state.search(QUERIES[0], top=3)
        assert payload["results"] and evidence["batch_size"] == 1
        assert set(threading.enumerate()) == before
        await state.drain()
        await state.drain()  # idempotent

    asyncio.run(main())
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
            # One resident tenant: the evicted one was detached, and
            # neither attach nor scoring started a thread.
            assert list(reg.resident_states()) == [tid]
            assert threading.active_count() == idle, cycle
        await service.drain()
        assert threading.active_count() == idle

    asyncio.run(main())


def test_add_runs_off_the_loop_while_searches_flush(monkeypatch):
    state = _fresh_state()
    n0 = state.current().n_documents
    entered, release = threading.Event(), threading.Event()
    ran_on: list[int] = []
    original = state.add_texts

    def held(texts, doc_ids=None):
        ran_on.append(threading.get_ident())
        entered.set()
        assert release.wait(30), "test never released the writer"
        return original(texts, doc_ids)

    monkeypatch.setattr(state, "add_texts", held)

    async def main():
        service = QueryService(state)
        await service.start()
        adding = asyncio.ensure_future(
            service.add(["renal oxygen study in children"])
        )
        while not entered.is_set():
            await asyncio.sleep(0)  # a yield, not a wait
        # The writer is held on its thread; the loop still scores.
        for query in QUERIES:
            assert (await service.search(query, top=3))["results"]
        assert not adding.done()
        release.set()
        added = await adding
        await service.drain()
        return added

    try:
        added = asyncio.run(main())
    finally:
        release.set()
    assert added["n_documents"] == n0 + 1
    assert ran_on and ran_on[0] != threading.get_ident()
