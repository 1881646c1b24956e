"""Epoch-swapped serving state: atomic reader/writer model handoff.

The updating layer (§2.3 folding-in, §4 SVD-updating) replaces the
*model object* on every maintenance action and never touches the one it
superseded.  A long-lived server builds on exactly that: queries that
started before an update **finish** against the state they started on,
while new queries see the new state — the classic epoch (RCU-style)
handoff.

:class:`EpochSnapshot` pins everything one batch of queries needs — the
model, the precomputed norms and unit rows of a row range
(the whole model here; one shard's rows in a cluster worker) — into
one immutable object, and its
:meth:`~EpochSnapshot.search` is the one scoring entry point of every
serving tier.  :class:`ServingState`
publishes the current snapshot behind a single attribute write (atomic
under the GIL), so readers never lock; writers serialize on a mutex,
route the addition through :class:`~repro.updating.manager.LSIIndexManager`
(fold-in now, consolidate per the §4.3 drift policy), build the
successor snapshot, and swap.  A whole-model snapshot scores through
the norms and unit rows its model memoizes
(:func:`~repro.serving.index.scaled_documents`), so it shares one build
with every other scorer of that model and frees it with the model.

:class:`ServingState` is also the in-process backend, and it batches
work-conservingly — one scan per pile-up, never a timer: its scheduler
takes the first waiting request plus whatever is *already* queued (up
to ``max_batch``, the cap on the ``(q, n)`` score block) and flushes at
once through one :meth:`EpochSnapshot.search` call, so a lone query
waits for nothing and the batch is exactly what piled up behind the
flush in flight.  Ranking stays per score row, so results are
element-identical to ``LSIRetrieval.search``.  A flush is scored on the
event loop itself (a scoring thread buys no overlap on one core; the
trade is in DESIGN.md) and the scheduler yields once after each, so its
replies go out before the next batch forms.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import DeadlineExceededError, ReproError, ShapeError
from repro.obs.metrics import registry
from repro.obs.trace_context import TraceContext, current_trace
from repro.obs.tracing import span
from repro.server.admission import AdmissionController
from repro.serving.ann import CoarseQuantizer
from repro.serving.index import scaled_documents, scaled_rows
from repro.serving.kernel import cosine_scores
from repro.serving.scan import ranked_scan
from repro.store.recovery import open_checkpoint

if TYPE_CHECKING:
    # The backend's event loop, and the writable flavours' types: a
    # shard worker imports this module for EpochSnapshot and loads none.
    import asyncio

    from repro.store.durable import DurableIndexStore
    from repro.store.sealing import CheckpointPolicy, StoreWriter
    from repro.updating.manager import LSIIndexManager

__all__ = [
    "EpochSnapshot",
    "ServingState",
    "check_search_args",
    "manager_from_texts",
    "train_quantizer",
]


def check_search_args(
    query="", top=None, threshold=None, timeout_ms=None, probes=None, exact=False
) -> None:
    """Raise :class:`ReproError` naming the first malformed search field.

    The one definition of a well-formed search: the HTTP front end calls
    it before any service sees the request (→ 400), the scorer calls it
    per request so an in-process caller's bad argument fails that
    request alone, never the batch it was coalesced into, and a shard
    worker calls it per score frame (which carries projected vectors,
    not text, so it passes no ``query``).
    """
    if probes is not None and (
        isinstance(probes, bool)
        or not isinstance(probes, numbers.Integral)
        or probes < 1
    ):
        raise ReproError("'probes' must be a positive integer")
    if not isinstance(exact, bool):
        raise ReproError("'exact' must be a boolean")
    if not isinstance(query, str) and not (
        isinstance(query, (list, tuple))
        and all(isinstance(token, str) for token in query)
    ):
        raise ReproError("'query' must be a string or a list of strings")
    if top is not None and (
        isinstance(top, bool) or not isinstance(top, numbers.Integral) or top < 0
    ):
        raise ReproError("'top' must be a non-negative integer")
    if threshold is not None and (
        isinstance(threshold, bool)
        or not isinstance(threshold, numbers.Real)
        or not math.isfinite(threshold)
    ):
        raise ReproError("'threshold' must be a finite number")
    if timeout_ms is not None and (
        isinstance(timeout_ms, bool)
        or not isinstance(timeout_ms, numbers.Real)
        or not timeout_ms > 0
    ):
        raise ReproError("'timeout_ms' must be a positive number")


def _per_query(value, q: int) -> list:
    """A scalar ``top``/``threshold`` repeated, or a per-query list as is."""
    return list(value) if isinstance(value, (list, tuple)) else [value] * q


class EpochSnapshot:
    """One immutable epoch of scoring state over document rows ``[lo, hi)``.

    The one pinned-epoch type every serving tier scores through: the
    single-node server holds a whole-model snapshot per epoch, a cluster
    shard worker holds one over its row range.  All queries of one
    micro-batch (or one scatter frame) are scored against a single
    snapshot, so a response can never mix documents from two epochs (no
    torn reads); the ``epoch`` and ``n_documents`` it reports describe
    exactly the state it was computed on.
    """

    __slots__ = (
        "epoch", "model", "lo", "hi", "scaled", "ann",
    )

    def __init__(
        self,
        epoch: int,
        model: LSIModel,
        *,
        lo: int = 0,
        hi: int | None = None,
        # Accepted and ignored: ledger/checks.py still passes it; ROADMAP
        # 1(v) drops it there, and then this keyword goes.
        query_cache_size: int | None = None,
        ann: CoarseQuantizer | None = None,
    ):
        self.epoch = int(epoch)
        self.model = model
        n = model.n_documents
        # The coarse quantizer may predate this epoch (it is trained at
        # checkpoint time) and always covers global rows: rows it has
        # never seen are held after its cells (the fresh tail) and still
        # searched exactly, and a range holds only its own cells' rows.
        if lo == 0 and hi is None:
            self.scaled = scaled_documents(model, ann)
            hi = n
        else:
            hi = n if hi is None else hi
            if not 0 <= lo <= hi <= n:
                raise ShapeError(
                    f"rows [{lo},{hi}) outside model with n={n}"
                )
            # Hold only this range's rows: deriving touches (and therefore
            # faults in) just the mapped pages of V[lo:hi].
            self.scaled = scaled_rows(model.V[lo:hi], model.s, ann, lo=lo)
        self.lo = lo
        self.hi = hi
        self.ann = ann

    @property
    def n_documents(self) -> int:
        """Documents visible at this epoch (the whole model, not the range)."""
        return self.model.n_documents

    @property
    def coords(self) -> np.ndarray:
        """Fp64 rows ``[lo, hi)`` of ``V_k Σ_k``, formed per call: a
        fresh n × k product no served request reads."""
        scaled = self.scaled
        return np.multiply(scaled.V, scaled.s, order="C")

    @property
    def norms(self) -> np.ndarray:
        """Read-only fp64 norm of each row of :attr:`coords`."""
        return self.scaled.norms

    @property
    def k(self) -> int:
        """Dimensionality of the comparison space."""
        return self.model.k

    # ------------------------------------------------------------------ #
    def project(self, query) -> np.ndarray:
        """Eq. 6 for one query (text or token sequence)."""
        return project_query(self.model, query)

    def scale(self, Q: np.ndarray) -> np.ndarray:
        """``Q Σ`` as a ``(q, k)`` batch: the "scaled" comparison space."""
        Q2 = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        if Q2.shape[1] != self.model.k:
            raise ShapeError(
                f"queries have {Q2.shape[1]} dims for k={self.model.k}"
            )
        return Q2 * self.model.s

    def search(
        self,
        Qs: np.ndarray,
        *,
        top=None,
        threshold=None,
        probes: int | None = None,
        exact: bool = False,
    ) -> tuple[list[list[tuple[int, float]]], list[dict] | None]:
        """Ranked ``(global_index, score)`` pairs per row of ``Qs``.

        The single scoring entry point of every serving tier.  ``Qs`` is
        the already Σ-scaled ``(q, k)`` batch (:meth:`scale`); ``top`` /
        ``threshold`` apply to every query, or per query when given as
        lists.  Returns ``(results, ann_stats)``:

        * **exact** (``probes is None`` or ``exact``):
          :func:`~repro.serving.scan.ranked_scan` over this snapshot's
          rows — one fp32 pass picks a provably sufficient candidate
          set, fp64 rescoring of those rows alone ranks them;
          ``ann_stats`` is ``None``.  A reported score is a pure function
          of (row, query), so whole model, row range, batch of 1 or 16
          and ``LSIRetrieval.search`` agree bit for bit.
        * **probe-bounded**: each query scores only the ``probes``
          nearest cells' rows that land in ``[lo, hi)`` (plus the fresh
          tail).  Cell selection is a pure function of the scaled query
          and the shared quantizer, so every range probes the same cells
          and range results merged with ``merge_topk`` equal a
          whole-model probe; element-identical to the exact scan when
          ``probes >= ann.n_clusters``.  ``ann_stats`` holds each
          query's ``cells_probed`` / ``candidates``.  Without a
          quantizer the request falls back to the exact scan, counted in
          ``ann.exact_fallbacks_total``.

        Zero-vector (all-OOV) queries score exactly 0 everywhere on both
        paths, so the engine's short-circuit needs no mirror.
        """
        Qs = np.atleast_2d(np.asarray(Qs, dtype=np.float64))
        q = Qs.shape[0]
        tops = _per_query(top, q)
        thresholds = _per_query(threshold, q)
        if probes is not None and not exact:
            if self.ann is not None:
                found = [
                    self.ann.select(
                        self.scaled,
                        row,
                        probes=probes,
                        top=t,
                        threshold=th,
                        offset=self.lo,
                    )
                    for row, t, th in zip(Qs, tops, thresholds)
                ]
                return [pairs for pairs, _ in found], [st for _, st in found]
            registry.inc("ann.exact_fallbacks_total", q)
        results = ranked_scan(
            self.scaled, Qs, tops, thresholds, offset=self.lo
        )
        return results, None

    def score_batch(self, Q: np.ndarray) -> np.ndarray:
        """Cosine of unscaled ``(q, k)`` query vectors with every row: the
        full-width fp64 matrix (reference surface) that :meth:`search`'s
        rankings are held to — same indices, scores within 1e-12.  No
        served request runs it, so it forms :attr:`coords` per call."""
        scaled = self.scaled
        return cosine_scores(
            self.coords, self.scale(Q), norms=scaled.norms,
            positive=scaled.positive,
        )

    def search_ann(
        self,
        qhat: np.ndarray,
        *,
        probes: int,
        top: int | None = None,
        threshold: float | None = None,
    ) -> tuple[list[tuple[int, float]], dict]:
        """:meth:`search` for one unscaled query that must be probe-bounded."""
        if self.ann is None:
            raise ReproError("snapshot has no coarse quantizer")
        results, stats = self.search(
            self.scale(qhat), top=top, threshold=threshold, probes=probes
        )
        return results[0], stats[0]


#: Batch-size histogram boundaries (requests per flush), powers of two.
BATCH_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: The most requests one flush coalesces (``serve --max-batch``).
MAX_BATCH = 32


@dataclass
class SearchRequest:
    """One admitted query waiting for (or being) scored.

    ``probes`` selects the ANN path (probe-bounded scan over that many
    coarse cells); ``None`` means the server default, which may itself
    be ``None`` (exact).  ``exact=True`` is the per-request escape
    hatch that forces the exhaustive GEMM regardless of any default.
    """

    query: object  # str | token sequence
    top: int | None = None
    threshold: float | None = None
    probes: int | None = None
    exact: bool = False
    deadline: float | None = None  # absolute time.monotonic() seconds
    #: The request's trace identity, captured at admission — the batch
    #: span lists every distinct trace it serves under ``trace_ids``.
    trace: TraceContext | None = None
    enqueued: float = field(default_factory=time.monotonic)
    future: asyncio.Future = None
    #: Filled in by the flush that scored (or expired) the request — the
    #: two facts that explain a slow one: how long it sat behind the
    #: flush in flight, and how many requests it was scored with.
    queue_wait_ms: float | None = None
    batch_size: int | None = None


class ServingState:
    """The in-process backend: one index's epochs, the scheduler that
    scores them and, over a store, the store's owner.

    Three flavours:

    * **manager-backed** (:meth:`for_manager`) — document additions run
      through the :class:`LSIIndexManager` (fold-in immediately, §4.3
      drift-policy consolidation when the planner says so) and publish a
      new epoch;
    * **durable** (:meth:`for_store`) — the same, with each addition
      WAL-logged by the store first, through the store's one owner
      (:attr:`writer`);
    * **static** (:meth:`for_model`, or :meth:`open` over a store
      directory) — serve a fitted model read-only; :meth:`add_texts`
      raises.

    Like the fleet (:class:`~repro.cluster.service.ClusterService`) it
    answers ``start`` / ``drain`` / ``search → (payload, evidence)`` /
    ``add`` / ``healthz`` / ``describe``.  It is built outside any event
    loop: :meth:`start` makes its queue and scheduler task on the running
    one and starts the store's owner, :meth:`drain` closes it.  Over a
    store its epoch is the store's (the checkpoint's, then each durable
    addition's WAL LSN), so a restart never moves it backwards; an
    in-memory state counts additions from 0.
    """

    def __init__(
        self,
        *,
        manager: LSIIndexManager | None = None,
        model: LSIModel | None = None,
        ann: CoarseQuantizer | None = None,
        epoch: int = 0,
        max_batch: int = MAX_BATCH,
    ):
        if (manager is None) == (model is None):
            raise ReproError("ServingState needs a manager or a model, not both")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._manager = manager
        self._write_lock = threading.Lock()
        #: The durable store additions go through (:meth:`for_store`),
        #: and its owner.
        self.store: DurableIndexStore | None = None
        self.writer: StoreWriter | None = None
        self.max_batch = max_batch  # caps a flush; not a target
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[SearchRequest] | None = None
        self._task: asyncio.Task | None = None
        initial = manager.model if manager is not None else model
        self._snapshot = EpochSnapshot(epoch, initial, ann=ann)
        self._publish_gauges(self._snapshot)

    # ------------------------------------------------------------------ #
    @classmethod
    def for_manager(
        cls, manager: LSIIndexManager, *, ann=None, max_batch: int = MAX_BATCH
    ) -> "ServingState":
        """Live-updatable state around an existing index manager."""
        return cls(manager=manager, ann=ann, max_batch=max_batch)

    @classmethod
    def for_store(
        cls, store: DurableIndexStore, policy: CheckpointPolicy | None = None,
        *, max_batch: int = MAX_BATCH,
    ) -> "ServingState":
        """Live-updatable state whose additions survive a crash.

        ``store`` goes to its owner, :attr:`writer` (``policy`` over the
        store, the default :class:`CheckpointPolicy` when ``None``), on
        whose thread the server WAL-logs each addition before its epoch
        is published.  The coarse quantizer is the store's newest; seals
        retrain the on-disk one but do not hot-swap the served one:
        documents added meanwhile are searched exactly via the
        fresh-tail rule, and a restart picks up the newest training.
        """
        from repro.store.sealing import CheckpointPolicy, StoreWriter

        # Its boot seal retrains ann.
        writer = StoreWriter(store, policy or CheckpointPolicy())
        state = cls(
            manager=store.manager, ann=store.ann, epoch=store.wal.last_lsn,
            max_batch=max_batch,
        )
        state.store, state.writer = store, writer
        return state

    @classmethod
    def for_model(
        cls, model: LSIModel, *, ann=None, max_batch: int = MAX_BATCH
    ) -> "ServingState":
        """Read-only state around a fitted (e.g. loaded) model."""
        return cls(model=model, ann=ann, max_batch=max_batch)

    @classmethod
    def open(cls, path, *, max_batch: int = MAX_BATCH) -> "ServingState":
        """Read-only state over a store directory — the one opener behind
        ``serve DB`` and every ``serve --tenant NAME=PATH``.

        It goes through the store's one door
        (:func:`~repro.store.recovery.open_checkpoint`: the newest valid
        checkpoint, mapped, with the quantizer trained when it was
        sealed), so an open trains nothing.
        """
        opened = open_checkpoint(path)
        return cls(
            model=opened.model(), ann=opened.ann(), epoch=opened.epoch,
            max_batch=max_batch,
        )

    @property
    def writable(self) -> bool:
        """Whether :meth:`add_texts` is available."""
        return self._manager is not None

    def current(self) -> EpochSnapshot:
        """The snapshot new work should run against (lock-free read)."""
        return self._snapshot

    def describe(self) -> dict:
        """The current epoch's status block (tenant registry)."""
        snapshot = self._snapshot
        return {
            "epoch": snapshot.epoch,
            "n_documents": snapshot.n_documents,
            "writable": self.writable,
        }

    def healthz(self) -> dict:
        """The served epoch's block of ``/healthz``."""
        return {**self.describe(), "ann": self._snapshot.ann is not None}

    # ------------------------------------------------------------------ #
    # the backend's lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Create the queue and spawn the scheduler task on the running
        event loop, and start the store's owner (idempotent)."""
        import asyncio  # loaded already: the caller runs an event loop

        if self._task is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._task = self._loop.create_task(
            self._run(), name="repro-server-batcher"
        )
        if self.writer is not None:
            self.writer.start()

    async def drain(self) -> None:
        """Answer every queued request and stop the scheduler, then stop
        the store's owner, which closes the store with a final flush."""
        import asyncio  # loaded already: the caller runs an event loop

        if self._task is not None:
            await self._queue.join()
            # Idle now: the queue is empty.
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
            self._task = None
        if self.writer is not None:
            await self.writer.stop(flush=True)

    # ------------------------------------------------------------------ #
    async def search(
        self,
        query,
        *,
        top: int | None = None,
        threshold: float | None = None,
        timeout_ms: float | None = None,
        probes: int | None = None,
        exact: bool = False,
    ) -> tuple[dict, dict]:
        """One ranked search, answered from a coalesced batch.

        Returns the reply and the scheduler's slow-log evidence: how
        long the request sat behind the flush in flight and how many
        requests it was scored with.  Raises
        :class:`~repro.errors.DeadlineExceededError` when ``timeout_ms``
        runs out before its batch is scored.  The first search starts
        the scheduler if :meth:`start` has not.
        """
        if self._task is None:
            await self.start()
        request = SearchRequest(
            query=query,
            top=top,
            threshold=threshold,
            probes=probes,
            exact=exact,
            deadline=AdmissionController.deadline_from(timeout_ms),
            trace=current_trace(),
            future=self._loop.create_future(),
        )
        self._queue.put_nowait(request)
        payload = await request.future
        return payload, {
            "batch_size": request.batch_size,
            "queue_wait_ms": request.queue_wait_ms,
        }

    async def add(self, texts, doc_ids=None) -> dict:
        """Add documents live; returns the new epoch description.

        Off the loop, so flushes go on while a writer updates: over a
        store on its owner's one thread, after any seal in flight;
        otherwise on the loop's default executor.  Readers never wait —
        in-flight batches finish against their pinned epoch, later
        batches see the new one.
        """
        import asyncio  # loaded already: the caller runs an event loop

        add = functools.partial(self.add_texts, list(texts), doc_ids)
        if self.writer is not None:
            return await self.writer.run(add)
        return await asyncio.get_running_loop().run_in_executor(None, add)

    def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> dict:
        """Add documents through the manager and publish a new epoch.

        Blocking (runs the fold-in / consolidation); :meth:`add` calls
        it on :attr:`writer`'s thread, or an executor thread with no
        store, and writers serialize on one mutex.  In-flight readers keep
        scoring their pinned snapshot; the swap is one attribute write.
        Over a store, the addition is WAL-fsynced before it is applied, so
        an acknowledged fold-in survives a crash, and the new epoch is
        its WAL LSN.
        """
        if self._manager is None:
            raise ReproError(
                "server is read-only: serving a store's checkpoint, not a "
                "managed index; restart with --data-dir or a document "
                "source to enable /add"
            )
        with self._write_lock:
            if self.store is not None:
                event = self.store.add_texts(list(texts), doc_ids)
                epoch = self.store.wal.last_lsn
            else:
                event = self._manager.add_texts(list(texts), doc_ids)
                epoch = self._snapshot.epoch + 1
            fresh = EpochSnapshot(
                epoch, self._manager.model, ann=self._snapshot.ann
            )
            self._snapshot = fresh  # the atomic reader/writer handoff
            self._publish_gauges(fresh)
        return {
            "epoch": fresh.epoch,
            "n_documents": fresh.n_documents,
            "action": event.action,
            "reason": event.reason,
        }

    @staticmethod
    def _publish_gauges(snapshot: EpochSnapshot) -> None:
        registry.set_gauge("server.epoch", snapshot.epoch)
        registry.set_gauge("server.n_documents", snapshot.n_documents)

    # ------------------------------------------------------------------ #
    # the scheduler
    # ------------------------------------------------------------------ #
    async def _run(self) -> None:
        import asyncio  # loaded already: the caller runs an event loop

        while True:
            batch = [await self._queue.get()]
            # Work-conserving: take what has already piled up, never wait
            # for more.  Requests arriving during the flush below are the
            # next iteration's batch.
            while len(batch) < self.max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            try:
                self._flush(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
            # Yield once per flush: its replies go out before the next
            # batch forms, however deep the queue.
            await asyncio.sleep(0)

    def _flush(self, batch: list[SearchRequest]) -> None:
        """Score one batch against the current epoch and resolve futures."""
        now = time.monotonic()
        live: list[SearchRequest] = []
        for req in batch:
            waited = now - req.enqueued
            req.queue_wait_ms = waited * 1000.0
            registry.observe("server.queue_wait_seconds", waited)
            if req.deadline is not None and now > req.deadline:
                registry.inc("server.deadline_expired")
                if not req.future.done():
                    req.future.set_exception(
                        DeadlineExceededError(
                            "request spent its deadline waiting in the "
                            "batch queue"
                        )
                    )
            else:
                live.append(req)
        registry.inc("server.batches_total")
        registry.observe(
            "server.batch_size", len(live), boundaries=BATCH_SIZE_BUCKETS
        )
        if not live:
            return
        for req in live:
            req.batch_size = len(live)
        snapshot = self._snapshot
        try:
            with span(
                "server.batch", size=len(live), epoch=snapshot.epoch
            ) as batch_span:
                # One batch serves many requests, hence many traces: the
                # span cannot belong to one trace_id, so it joins each
                # via the trace_ids attribute (see spans_for_trace).
                trace_ids = sorted(
                    {req.trace.trace_id for req in live if req.trace}
                )
                if trace_ids:
                    batch_span.set_attr("trace_ids", trace_ids)
                responses = self._score_batch(snapshot, live)
        except Exception as exc:  # noqa: BLE001 — fail the batch, not the server
            responses = [exc] * len(live)
        for req, response in zip(live, responses):
            if req.future.done():
                continue
            if isinstance(response, Exception):
                req.future.set_exception(response)
            else:
                req.future.set_result(response)

    def _score_batch(
        self, snapshot: EpochSnapshot, batch: list[SearchRequest]
    ) -> list[dict | ReproError]:
        """Project + score + rank one batch.

        The batch splits by effective probe count: the *exact* group
        (``None``) shares one fp32 pass over all documents (read once,
        in row blocks: :func:`~repro.serving.scan.approx_cosines`), each
        ANN group probes the snapshot's quantizer per query (candidate
        sets differ per query, so there is no cross-query pass to share;
        the grouping bounds the per-probe-set bookkeeping and spans).  Each
        group is one :meth:`EpochSnapshot.search` call, which also owns
        the exact fallback for a snapshot without a quantizer.

        A request whose arguments or projection are invalid gets a
        :class:`ReproError` in its slot and is left out of its group's
        matrix — co-batched requests score as if it had never arrived.
        """
        groups: dict[int | None, list[int]] = {}
        for i, req in enumerate(batch):
            groups.setdefault(None if req.exact else req.probes, []).append(i)
        doc_ids = snapshot.model.doc_ids
        responses: list[dict | ReproError] = [None] * len(batch)
        for probes, candidates in groups.items():
            members, rows = [], []
            for i in candidates:
                req = batch[i]
                try:
                    check_search_args(
                        req.query, req.top, req.threshold,
                        probes=req.probes, exact=req.exact,
                    )
                    rows.append(snapshot.project(req.query))
                    members.append(i)
                except ReproError as exc:
                    responses[i] = exc
            if not members:
                continue
            requests = [batch[i] for i in members]
            Qs = snapshot.scale(np.stack(rows))
            with span(
                "server.score" if probes is None else "server.ann_scan",
                size=len(requests),
                probes=probes,
            ):
                t0 = time.perf_counter()
                results, ann_stats = snapshot.search(
                    Qs,
                    top=[req.top for req in requests],
                    threshold=[req.threshold for req in requests],
                    probes=probes,
                )
            if ann_stats is None:
                registry.observe(
                    "server.batch_gemm_seconds", time.perf_counter() - t0
                )
            for n, (i, pairs) in enumerate(zip(members, results)):
                responses[i] = {
                    "epoch": snapshot.epoch,
                    "n_documents": snapshot.n_documents,
                    "results": [[j, score, doc_ids[j]] for j, score in pairs],
                }
                if ann_stats is not None:
                    responses[i]["ann"] = {
                        "probes": probes,
                        "cells_probed": ann_stats[n]["cells_probed"],
                        "candidates": ann_stats[n]["candidates"],
                    }
        return responses


def train_quantizer(
    model: LSIModel, n_clusters: int | None = None, *, seed=0
) -> CoarseQuantizer:
    """A coarse quantizer over ``model``'s ``V_k Σ_k``, for a state no
    checkpoint hands one: the in-memory index ``repro serve`` fits from
    a document source."""
    # The coordinates alone: deriving the model's scoring rows here would
    # lay them out in document order, before the quantizer exists.
    return CoarseQuantizer.train(model.V * model.s, n_clusters, seed=seed)


def manager_from_texts(
    texts: Sequence[str],
    doc_ids: Sequence[str] | None = None,
    *,
    k: int = 50,
    scheme: str | object = "log_entropy",
    min_doc_freq: int = 1,
    seed: int = 0,
    ingest_method: str = "fold-in",
    fast_update_rank: int = 8,
) -> LSIIndexManager:
    """Fit the live-updatable index manager ``repro serve`` runs on.

    One deterministic path shared by ``repro serve``, the durable store
    seeding path, and the CI smoke harnesses (which rebuild the same
    model in-process to check served results byte-for-byte): parse →
    TDM → manager fit, with ``k`` clamped to the matrix rank bound.
    """
    from repro.text.parser import ParsingRules
    from repro.text.tdm import build_tdm
    from repro.updating.manager import LSIIndexManager

    rules = ParsingRules(min_doc_freq=min_doc_freq)
    tdm = build_tdm(list(texts), rules, doc_ids=doc_ids)
    return LSIIndexManager(
        tdm,
        k=max(1, min(k, min(tdm.shape))),
        scheme=scheme,
        seed=seed,
        ingest_method=ingest_method,
        fast_update_rank=fast_update_rank,
    )
