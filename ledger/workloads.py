"""The four served workloads and their end-to-end measurements.

Each workload starts real ``python -m repro ...`` server subprocesses,
drives them over HTTP with tracing off, and reads everything else it
reports from outside the program: reply bodies, ``/metrics``,
``/healthz``, ``/proc`` and the store directory.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import statistics
import time
from dataclasses import dataclass, field

from repro.updating.orthogonality import drift_report

from ledger import checks, fixtures, loadgen
from ledger.servers import Server

#: Rounds per run.  A round is spawn -> ready -> first 200 -> warm-up ->
#: traffic -> stop on a server of its own, so every end-to-end metric has
#: one value per round and a run reports their median.  One server held
#: its speed to 2 % over a minute; the next one on the same store could
#: be 10 % off for as long as it lived (where its pages and the host's
#: other guests happened to sit), and no length of window averages that
#: out.  The median of three drops one such server.
ROUNDS = 3
WARMUP_S = 1.0
TAIL = 95  # the tail percentile every workload reports (see ``_latency_metrics``)
#: Requests per second of the paced reader.  A saturating reader halved
#: the writer's throughput and made it wander by a quarter; at 100/s the
#: front end, which shares its interpreter with the writer thread, fell
#: behind without bound during the consolidation.  50/s it sustains.
PACED_RATE = 50.0
#: Queries generated per run; the closed loop wraps if it outruns them
#: (a wrapped query still misses the 256-entry query-vector cache).
STREAM = 8_192
#: Reads kept after the last document became visible; these are
#: the ones compared with the reference of the final epoch.
READS_AFTER_VISIBLE = 50
VISIBLE_DEADLINE_S = 90.0  # after the last ack


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is in ``BENCHMARK.json``."""

    name: str
    store: str  # "S" (synthetic serving store) or "T" (text store)
    front: tuple[str, ...]  # ``repro`` arguments before ``--data-dir``
    top: int
    probes: int | None = None


#: In the order a full run takes them.  ``ingest_mixed`` goes first: for
#: some twenty seconds after this process has built S and driven servers
#: on it, an ingest ran slower throughout (ack p50 220 to 265 ms against
#: 150 to 160 ms; with a 25 s pause in between, 166 ms).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest_mixed", "T",
            ("cluster", "serve", "--workers", "2", "--writable"), top=10,
        ),
        Workload("serve_exact", "S", ("serve",), top=10),
        Workload("serve_ann", "S", ("serve",), top=10, probes=8),
        Workload("cluster_exact", "S", ("cluster", "serve", "--workers", "2"), top=100),
    )
}


@dataclass
class Fixtures:
    """What one invocation built; stores are made on first use."""

    seed: int
    sizes: fixtures.Sizes
    workdir: pathlib.Path
    serving: fixtures.ServingStore | None = None
    corpus: fixtures.TextCorpus | None = None
    fitted: tuple | None = None  # (manager, the model it was fitted to)
    streams: dict = field(default_factory=dict)  # store -> its query stream

    def serving_store(self) -> fixtures.ServingStore:
        if self.serving is None:
            self.serving = fixtures.build_serving_store(
                self.workdir / "S", self.seed, self.sizes
            )
        return self.serving

    def text_corpus(self) -> fixtures.TextCorpus:
        if self.corpus is None:
            self.corpus = fixtures.build_text_corpus(self.seed, self.sizes)
        return self.corpus

    def text_manager(self):
        """T fitted once: ``(manager, base model)``.  The layer
        measurements move the manager on; the model stays as fitted."""
        if self.fitted is None:
            manager = fixtures.fit_text_manager(self.text_corpus())
            self.fitted = (manager, manager.model)
        return self.fitted

    def queries(self, workload: Workload) -> list[list[str]]:
        if workload.store not in self.streams:
            self.streams[workload.store] = (
                fixtures.serving_queries(self.seed, self.sizes, STREAM)
                if workload.store == "S"
                else fixtures.text_queries(self.seed, self.text_corpus(), STREAM)
            )
        return self.streams[workload.store]


@dataclass
class WorkloadResult:
    """One workload's measurements: a list of values per metric."""

    workload: str
    end_to_end: dict[str, list[float]] = field(default_factory=dict)
    observed: dict[str, float] = field(default_factory=dict)
    tallies: dict[str, checks.Tally] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def add(self, metric: str, value: float) -> None:
        self.end_to_end.setdefault(metric, []).append(float(value))

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies.values())

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


#: What a layer reports on a workload that never enters it, where that
#: is not 0.
NO_WORK = {"serving.ann.candidate_fraction": 1.0}  # an exact scan scores every row


def search_requests(workload: Workload, queries: list[list[str]]) -> list[bytes]:
    extra = {} if workload.probes is None else {"probes": workload.probes}
    return [
        loadgen.http_request(
            "POST", "/search", {"query": q, "top": workload.top, **extra}
        )
        for q in queries
    ]


def server_args(
    workload: Workload, data_dir: pathlib.Path, sizes: fixtures.Sizes
) -> list[str]:
    args = [*workload.front, "--data-dir", str(data_dir), "--port", "0"]
    if "--writable" in workload.front:
        # One seal, after the last batch: the record trigger is set to the
        # number of batches and the age trigger is off.  The writer polls
        # its policy every 0.5 s while batches land every 0.15 s, so any
        # smaller count fires late, seals more than its count and leaves a
        # tail no trigger ever seals; and a seal beside the timed reads
        # holds them for 0.2-0.4 s, which made their tail a count of seals.
        args += ["--seal-every", str(sizes.add_batches), "--seal-interval", "0"]
    return args


async def _first_ok(port: int, request: bytes) -> None:
    conn = await loadgen.Connection.open(port)
    try:
        status, body = await conn.call(request)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"first request -> {status}: {body[:200]!r}")


def _bring_up(server: Server, first: bytes) -> float:
    """Wait for the banner and the first 200; seconds since spawn."""
    port = server.wait_ready()
    asyncio.run(_first_ok(port, first))
    return time.perf_counter() - server.spawned


def _stop_cleanly(server: Server, result: WorkloadResult) -> None:
    code = server.stop()
    if code != 0 or not server.printed("drained cleanly"):
        result.problems.append(
            f"server exit {code}, drained cleanly: {server.printed('drained cleanly')}"
        )


def _observe_metrics(result: WorkloadResult, metrics: dict, health: dict) -> None:
    counters = metrics.get("counters", {})
    histograms = metrics.get("histograms", {})
    wait = histograms.get("server.queue_wait_seconds")
    size = histograms.get("server.batch_size")
    writer = health.get("writer") or {}
    result.observed.update(
        {
            "server.batching.queue_wait_p50_ms": wait["p50"] * 1000.0 if wait else 0.0,
            "server.batching.batch_size_mean": (
                size["sum"] / size["count"] if size and size["count"] else 0.0
            ),
            "server.batching.batches": counters.get("server.batches_total", 0),
            "server.admission.rejected": sum(
                v for k, v in counters.items() if k.startswith("server.rejected_")
            ),
            "cluster.primary.seals": writer.get("seals_total", 0),
            "cluster.epochs.bumps": counters.get("cluster.bump_broadcasts_total", 0),
            "cluster.router.hedges": counters.get("cluster.hedges_total", 0),
            "cluster.router.failovers": counters.get("cluster.failovers_total", 0),
            "cluster.router.partials": counters.get("cluster.partial_responses", 0),
        }
    )


def _latency_metrics(result: WorkloadResult, good, opened: float, seconds: float) -> None:
    """One value per metric for one window of ``good`` replies, all over
    the whole window: the rate at which replies arrived inside it (from
    the first to the last), their median latency and their tail.

    The tail is p95 everywhere: a window of these workloads holds 250 to
    2500 replies, always enough for ten beyond p95 and not always for
    p99, and a percentile that changed with the sample count would jump
    when a server got faster.
    """
    latencies = [s.latency_ms for s in good]
    arrivals = [s.done for s in good if s.done <= opened + seconds]
    if len(arrivals) < 2:
        result.problems.append("a window held fewer than two replies")
        return
    result.add("search_qps", (len(arrivals) - 1) / (max(arrivals) - min(arrivals)))
    result.add("search_p50_ms", loadgen.percentile(latencies, 50))
    result.add("search_p95_ms", loadgen.percentile(latencies, TAIL))
    if loadgen.tail_percentile(len(latencies)) < TAIL:
        result.notes["tail_undersampled"] = (
            f"{len(latencies)} replies, fewer than p{TAIL} needs for "
            f"{loadgen.MIN_BEYOND} beyond it"
        )


# --------------------------------------------------------------------- #
# the three read workloads
# --------------------------------------------------------------------- #
def run_read(
    workload: Workload, fx: Fixtures, *, seconds: float, rounds: int
) -> WorkloadResult:
    result = WorkloadResult(workload.name, observed=dict(NO_WORK))
    store = fx.serving_store()
    queries = fx.queries(workload)
    requests = search_requests(workload, queries)
    args = server_args(workload, store.path, fx.sizes)
    window_s = seconds / rounds
    windows = []
    for i in range(rounds):
        with Server(args, fx.workdir) as server:
            result.add("setup_s", _bring_up(server, requests[-1]))
            result.observed["cluster.supervisor.spawn_s"] = server.workers_up_s()
            windows.append(
                asyncio.run(
                    loadgen.closed_loop(
                        server.port, requests, seconds=window_s, warmup_s=WARMUP_S,
                        start_index=i * (STREAM // rounds),
                    )
                )
            )
            _observe_metrics(
                result,
                asyncio.run(loadgen.get_json(server.port, "/metrics")),
                asyncio.run(loadgen.get_json(server.port, "/healthz")),
            )
            result.add("rss_peak_mb", server.rss_peak_mb())
            _stop_cleanly(server, result)
    reference = checks.Reference(store.path)
    fractions: list[float] = []
    for i, (samples, opened) in enumerate(windows):
        tally = result.tallies.setdefault(f"search_round_{i}", checks.Tally())
        good, recalls, frac = checks.check_searches(
            samples, queries, reference,
            top=workload.top, probes=workload.probes, tally=tally,
        )
        fractions += frac
        if good:
            _latency_metrics(result, good, opened, window_s)
        if recalls:
            result.add("recall_at_10", statistics.fmean(recalls))
    if fractions:
        result.observed["serving.ann.candidate_fraction"] = statistics.fmean(fractions)
    return result


# --------------------------------------------------------------------- #
# ingest_mixed: writes beside reads
# --------------------------------------------------------------------- #
async def _ingest(port: int, batches, requests, total_docs: int) -> dict:
    """One closed-loop writer beside one paced reader, on two connections."""
    writer_conn = await loadgen.Connection.open(port)
    reader_conn = await loadgen.Connection.open(port)
    state = {"acks": [], "first_add": None, "last_ack": None, "visible": None}
    remaining = [READS_AFTER_VISIBLE]

    async def writer() -> None:
        for texts in batches:
            request = loadgen.http_request("POST", "/add", {"texts": texts})
            sent = time.perf_counter()
            if state["first_add"] is None:
                state["first_add"] = sent
            status, body = await writer_conn.call(request)
            state["acks"].append((sent, time.perf_counter(), status, body))
        state["last_ack"] = time.perf_counter()

    def stop(sample: loadgen.Sample) -> bool:
        if state["visible"] is None:
            if sample.status == 200 and (
                json.loads(sample.body).get("n_documents") == total_docs
            ):
                state["visible"] = sample.done
            elif (
                state["last_ack"] is not None
                and sample.done - state["last_ack"] > VISIBLE_DEADLINE_S
            ):
                return True
            return False
        remaining[0] -= 1
        return remaining[0] <= 0

    try:
        _, reads = await asyncio.gather(
            writer(),
            loadgen.paced_loop(reader_conn, requests, rate=PACED_RATE, stop=stop),
        )
    finally:
        await writer_conn.close()
        await reader_conn.close()
    state["reads"] = reads
    return state


def run_ingest(workload: Workload, fx: Fixtures, *, rounds: int) -> WorkloadResult:
    result = WorkloadResult(workload.name, observed=dict(NO_WORK))
    corpus = fx.text_corpus()
    sizes = fx.sizes
    queries = fx.queries(workload)
    requests = search_requests(workload, queries)
    for i in range(rounds):
        data_dir = fx.workdir / f"T{i}"
        # The build path is this workload's set-up: raw text -> build_tdm ->
        # weighting -> Lanczos fit -> DurableIndexStore.initialize -> cluster up.
        t0 = time.perf_counter()
        fixtures.build_text_store(data_dir, corpus)
        built = time.perf_counter() - t0
        with Server(server_args(workload, data_dir, sizes), fx.workdir) as server:
            result.add("setup_s", built + _bring_up(server, requests[-1]))
            result.observed["cluster.supervisor.spawn_s"] = server.workers_up_s()
            state = asyncio.run(
                _ingest(server.port, corpus.batches, requests, sizes.t_total)
            )
            _observe_metrics(
                result,
                asyncio.run(loadgen.get_json(server.port, "/metrics")),
                asyncio.run(loadgen.get_json(server.port, "/healthz")),
            )
            result.add("rss_peak_mb", server.rss_peak_mb())
            _stop_cleanly(server, result)
        _score_ingest(result, state, workload, queries, data_dir, sizes)
        shutil.rmtree(data_dir)
    return result


def _score_ingest(result, state, workload, queries, data_dir, sizes) -> None:
    """Turn one ingest run's acks and replies into metrics and tallies.

    The read metrics are those of the reads that were due while the
    writer had a batch outstanding.  Reads after the last ack see an idle
    writer, then the one seal and epoch bump; they are checked, and the
    slowest is noted, but not timed.
    """
    # writes: an HTTP 200 on /add is the WAL-fsync durability ack
    adds = result.tallies.setdefault("add", checks.Tally())
    acked = []
    actions: list[str] = []
    for ack in state["acks"]:
        adds.attempted += 1
        _, _, status, body = ack
        reply = json.loads(body) if status == 200 else {}
        if reply.get("durable") is True:
            acked.append(ack)
            actions.append(reply.get("action"))
        else:
            adds.fail(f"status_{status}")
    ack_ms = [(done - sent) * 1000.0 for sent, done, _, _ in acked]
    result.notes["consolidations"] = [a for a in actions if a != "fast-update"]
    result.problems += checks.check_store_after_ingest(data_dir, sizes.t_total)
    if state["visible"] is None:
        result.problems.append(
            f"{sizes.t_total} documents never became visible to a search"
        )

    # reads: shape while epochs move, the reference once the last is visible
    reads = state["reads"]
    visible = state["visible"] if state["visible"] is not None else float("inf")
    tally = result.tallies.setdefault("search_during_ingest", checks.Tally())
    good = []
    for sample in (s for s in reads if s.done <= visible):
        tally.attempted += 1
        _, problem = checks.shape_problem(
            sample.status, sample.body, n_documents=None, top=workload.top
        )
        if problem is None:
            good.append(sample)
        else:
            tally.fail(problem)
    reference = checks.Reference(data_dir)
    good_after, recalls, _ = checks.check_searches(
        [s for s in reads if s.done > visible], queries, reference,
        top=workload.top, probes=None,
        tally=result.tallies.setdefault("search_after_visible", checks.Tally()),
    )
    good += good_after

    # Reads beside the writer come in two regimes: a few milliseconds
    # while it applies a fast update, hundreds while it consolidates.
    # With about half the reads in each, their common median sat on the
    # step between the two and moved by half its value from run to run.
    # So the median is that of the reads due while a fast-update batch was
    # outstanding; the median beside the consolidating batch is noted, and
    # the tail covers every read due before the last ack.  The rate is
    # that of all replies between the first /add and the last ack: the
    # reader is paced, so it is the offered rate unless the server is
    # still behind when the writer finishes.
    spans = {"fast-update": [], "consolidating": []}
    for (sent, done, _, _), action in zip(acked, actions):
        spans["fast-update" if action == "fast-update" else "consolidating"].append(
            (sent, done)
        )
    beside = {
        regime: [s for s in good if any(a <= s.due < b for a, b in intervals)]
        for regime, intervals in spans.items()
    }
    steady = beside["fast-update"]
    if steady:
        first_add, last_ack = state["first_add"], state["last_ack"]
        arrived = sum(first_add <= s.done <= last_ack for s in good)
        result.add("search_qps", arrived / (last_ack - first_add))
        result.add("search_p50_ms", loadgen.percentile([s.latency_ms for s in steady], 50))
        every = [s.latency_ms for s in steady + beside["consolidating"]]
        result.add("search_p95_ms", loadgen.percentile(every, TAIL))
        lateness = [(s.sent - s.due) * 1000.0 for s in steady]
        result.notes["paced_rate_per_s"] = PACED_RATE
        result.notes["lateness_p50_ms"] = loadgen.percentile(lateness, 50)
        result.notes["lateness_max_ms"] = max(lateness)
    if beside["consolidating"]:
        result.notes["read_p50_while_consolidating_ms"] = loadgen.percentile(
            [s.latency_ms for s in beside["consolidating"]], 50
        )
    after_writes = [s.latency_ms for s in good if s.due > state["last_ack"]]
    if after_writes:
        result.notes["read_across_seal_max_ms"] = max(after_writes)
    if recalls:
        result.add("recall_at_10", statistics.fmean(recalls))
    if ack_ms:
        result.add("add_ack_p50_ms", loadgen.percentile(ack_ms, 50))
        result.notes["add_ack_max_ms"] = max(ack_ms)
    if state["visible"] is not None:
        result.add(
            "ingest_docs_per_s", sizes.t_added / (state["visible"] - state["first_add"])
        )
    on_disk = sum(p.stat().st_size for p in data_dir.rglob("*") if p.is_file())
    result.add("store_bytes_per_doc", on_disk / sizes.t_total)
    result.observed["updating.orthogonality.drift_after_ingest"] = drift_report(
        reference.snapshot.model
    ).doc_loss


def run_workload(
    name: str, fx: Fixtures, *, seconds: float, rounds: int = ROUNDS
) -> WorkloadResult:
    """``rounds`` rounds of ``name``; ``seconds`` of measured traffic in
    all, split evenly between them (``ingest_mixed`` does fixed work per
    round instead)."""
    workload = WORKLOADS[name]
    if workload.store == "T":
        result = run_ingest(workload, fx, rounds=rounds)
    else:
        result = run_read(workload, fx, seconds=seconds, rounds=rounds)
    result.add("failed_share", result.failed / max(result.attempted, 1))
    return result
