"""The shard worker: one process, one contiguous slice of the space.

A worker is a pure *checkpoint consumer*.  It opens the checkpoint its
shard plan names, memory-mapped and by name
(:func:`repro.cluster.epochs.open_checkpoint` — O(header) open, no
pickling of factors, the plan's epoch and document count checked),
materializes only its shard's scoring state — ``V[lo:hi] Σ`` and its
row norms, the rows ``[lo, hi)`` of the whole model's — and
serves two things over length-prefixed frames on a local socket
(:mod:`repro.cluster.wire`):
``score`` requests and heartbeats.  Nothing else: no updating, no WAL,
no lock on the store.  Restarting a worker is therefore always safe and
cheap, which is what the supervisor's crash-restart loop relies on.

Epoch window
------------
Under a writable cluster the primary writer broadcasts a ``bump`` op
after sealing each new checkpoint.  The worker remaps the named
checkpoint into a fresh :class:`~repro.server.state.EpochSnapshot` over
its row range and swaps it in with one reference assignment — the
superseded snapshot is retained as *previous*
until the next bump, so ``score`` frames carrying the old epoch (sent
by front-end requests that snapshotted their handle before the swap)
still score against exactly the state they started on.  A request for
an epoch outside this two-deep window is answered with a skew marker
the router degrades to a partial response.

Exactness contract
------------------
:meth:`ShardWorker.score` is :meth:`EpochSnapshot.search` over
``(hi-lo, k)`` rows — the *identical* kernel and selection the
whole-model search runs, whose reported score is a pure function of
(row, query) — and the wire carries the query batch and the ranked
pairs as raw IEEE bytes, bit for bit, so a router merging worker
responses with ``merge_topk`` reproduces the whole-model search
element-for-element: indices, scores, tie order.

Run one with ``python -m repro cluster worker`` (the supervisor does).
"""

from __future__ import annotations

import os
import pathlib
import signal
import socketserver
import sys
import threading
import time

import numpy as np

from repro.cluster.epochs import open_checkpoint
from repro.cluster.plan import ShardPlan, ShardRange
from repro.cluster.wire import BUMP_OP, recv_frame, send_frame
from repro.core.model import LSIModel
from repro.errors import ClusterError, ReproError, StoreError
from repro.obs.metrics import registry
from repro.obs.trace_context import TraceContext, trace_scope
from repro.obs.tracing import span, spans_for_trace
from repro.parallel.sharding import RANKED
from repro.server.state import EpochSnapshot, check_search_args
from repro.serving.ann import CoarseQuantizer

__all__ = ["ShardWorker", "WorkerServer", "serve_shard", "run_worker"]


class ShardWorker:
    """Transport-free scoring core for one shard, epoch-windowed.

    Separated from the socket loop so tests (and the router's in-process
    parity harnesses) can drive :meth:`handle` directly.  The worker
    holds the :attr:`current` epoch's snapshot of its row range plus the
    immediately superseded one as :attr:`previous` (see the module
    docstring).  Snapshots are never mutated — the worker swaps whole
    instances, which is what lets in-flight queries keep a consistent
    view without any locking on the score path.
    """

    def __init__(
        self,
        model: LSIModel,
        shard: ShardRange,
        *,
        epoch: int = 0,
        ann: CoarseQuantizer | None = None,
        data_dir: pathlib.Path | None = None,
        replica: int = 0,
        tenant: str | None = None,
    ):
        self.shard_id = shard.shard_id
        self.current = self._snapshot(model, shard, epoch, ann)
        self.previous: EpochSnapshot | None = None
        #: The tenant this worker's rows belong to.  ``None`` accepts
        #: any frame (single-tenant cluster); set, the worker refuses
        #: frames stamped for a different tenant — a misrouted scatter
        #: must fail loudly rather than silently score foreign rows.
        self.tenant = tenant
        #: Replica index within this shard range's replica set —
        #: identity only; every replica scores identical bytes.
        self.replica = int(replica)
        self._swap_lock = threading.Lock()  # serializes bumps, not scores
        #: Store directory bumps remap checkpoints from; ``None`` makes
        #: the worker bump-refusing (in-process/test construction).
        self.data_dir = pathlib.Path(data_dir) if data_dir else None
        self.started_unix = time.time()
        self.requests_served = 0
        self.bumps_applied = 0
        # Fault-injection hook for smoke tests: a fixed per-request delay
        # (milliseconds) that pushes requests over the slow-log threshold.
        self.inject_delay_s = (
            float(os.environ.get("REPRO_WORKER_INJECT_DELAY_MS", 0) or 0)
            / 1000.0
        )

    @staticmethod
    def _snapshot(model, shard: ShardRange, epoch: int, ann) -> EpochSnapshot:
        return EpochSnapshot(epoch, model, lo=shard.lo, hi=shard.hi, ann=ann)

    def _snapshot_for_epoch(self, epoch) -> EpochSnapshot | None:
        """The held snapshot matching ``epoch`` (None = current), if any."""
        current, previous = self.current, self.previous
        if epoch is None or int(epoch) == current.epoch:
            return current
        if previous is not None and int(epoch) == previous.epoch:
            return previous
        return None

    # ------------------------------------------------------------------ #
    def info(self) -> dict:
        """Identity block for hellos, status pages, and debugging."""
        current, previous = self.current, self.previous
        return {
            "shard": self.shard_id,
            "replica": self.replica,
            "lo": current.lo,
            "hi": current.hi,
            "epoch": current.epoch,
            "previous_epoch": previous.epoch if previous else None,
            "n_documents": current.n_documents,
            "k": current.k,
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_unix,
            "requests_served": self.requests_served,
            "bumps_applied": self.bumps_applied,
            "ann": current.ann is not None,
            "tenant": self.tenant,
        }

    # ------------------------------------------------------------------ #
    def bump(self, plan_json: str) -> dict:
        """Hot-remap to the plan's checkpoint; retain the old epoch.

        Idempotent for the current epoch.  Returns the ack dict (or an
        error dict the router surfaces); on success the superseded
        snapshot stays answerable until the next bump.
        """
        if self.data_dir is None:
            return {"error": "worker has no data dir — cannot remap"}
        try:
            plan = ShardPlan.from_json(plan_json)
        except Exception as exc:  # noqa: BLE001 — malformed plan
            return {"error": f"malformed bump plan: {exc!r}"}
        with self._swap_lock:
            current = self.current
            if plan.epoch == current.epoch:
                return {
                    "ok": True,
                    "shard": self.shard_id,
                    "epoch": current.epoch,
                    "noop": True,
                }
            if not 0 <= self.shard_id < plan.n_shards:
                return {
                    "error": (
                        f"bump plan has {plan.n_shards} shards; worker "
                        f"serves shard {self.shard_id}"
                    )
                }
            try:
                epoch, model, ann = open_checkpoint(self.data_dir, plan)
                fresh = self._snapshot(
                    model, plan.shard(self.shard_id), epoch, ann
                )
            except Exception as exc:  # noqa: BLE001 — keep serving old epoch
                return {"error": f"remap of {plan.checkpoint} failed: {exc}"}
            # The swap: one reference assignment each.  In-flight scores
            # grabbed their snapshot reference already; new frames see the
            # fresh epoch, old-epoch frames land on ``previous``.
            self.previous = current
            self.current = fresh
            self.bumps_applied += 1
            registry.inc("cluster.worker.bumps_total")
            registry.set_gauge("cluster.worker.epoch", epoch)
            return {"ok": True, "shard": self.shard_id, "epoch": epoch}

    def score(
        self,
        Qs: np.ndarray,
        top: int | None,
        threshold: float | None,
        *,
        probes: int | None = None,
        exact: bool = False,
        snapshot: EpochSnapshot | None = None,
    ) -> tuple[list[np.ndarray], bool]:
        """One :data:`~repro.parallel.sharding.RANKED` record array of
        ``(global_index, score)`` per query for this shard, and whether
        the probe-bounded path produced them.

        ``Qs`` is the already-scaled ``(q, k)`` comparison-space batch
        (the router applies ``Σ`` once); :meth:`EpochSnapshot.search`
        over the shard's rows returns global row numbers, so the merge
        needs no further translation.  ``snapshot`` pins the epoch to
        score against (default: current).
        """
        results, ann_stats = (snapshot or self.current).search(
            Qs, top=top, threshold=threshold, probes=probes, exact=exact
        )
        ranked = [
            np.fromiter(pairs, dtype=RANKED, count=len(pairs))
            for pairs in results
        ]
        return ranked, ann_stats is not None

    # ------------------------------------------------------------------ #
    def handle(self, message: dict) -> dict:
        """Dispatch one protocol message; always returns a response dict."""
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "shard": self.shard_id, "epoch": self.current.epoch}
        if op == "info":
            return self.info()
        if op == BUMP_OP:
            plan_json = message.get("plan")
            if not isinstance(plan_json, str) or not plan_json:
                return {"error": "'plan' must be the canonical plan JSON"}
            try:
                return self.bump(plan_json)
            except Exception as exc:  # noqa: BLE001 — keep serving
                return {"error": f"bump failed: {exc!r}"}
        if op == "score":
            frame_tenant = message.get("tenant")
            if (
                self.tenant is not None
                and frame_tenant is not None
                and frame_tenant != self.tenant
            ):
                registry.inc("cluster.worker.tenant_mismatch_total")
                return {
                    "error": (
                        f"worker serves tenant {self.tenant!r}; frame is "
                        f"for {frame_tenant!r}"
                    ),
                    "tenant": self.tenant,
                }
            # Pin the epoch the frame asks for (absent = current) before
            # anything else: every read below must come from one snapshot.
            snapshot = self._snapshot_for_epoch(message.get("epoch"))
            if snapshot is None:
                current = self.current
                registry.inc("cluster.worker.epoch_skew_total")
                return {
                    "error": (
                        f"epoch {message.get('epoch')} is no longer held "
                        f"(current {current.epoch})"
                    ),
                    "stale_epoch": True,
                    "shard": self.shard_id,
                    "epoch": current.epoch,
                }
            try:
                Qs = np.atleast_2d(
                    np.asarray(message["queries"], dtype=np.float64)
                )
            except (KeyError, TypeError, ValueError) as exc:
                return {"error": f"malformed 'queries': {exc!r}"}
            if Qs.ndim != 2 or Qs.shape[1] != snapshot.k:
                return {
                    "error": (
                        f"queries have shape {Qs.shape} for k={snapshot.k}"
                    )
                }
            top = message.get("top")
            threshold = message.get("threshold")
            probes = message.get("probes")
            exact = message.get("exact", False)
            try:
                check_search_args(
                    top=top, threshold=threshold, probes=probes, exact=exact
                )
            except ReproError as exc:
                return {"error": str(exc)}
            # The frame's trace context (if any) makes this worker's
            # scoring span a child of the router's scatter span, in the
            # router's trace, even though it lives in another process.
            ctx = TraceContext.from_wire(message.get("trace"))
            try:
                with trace_scope(ctx), span(
                    "cluster.worker.score",
                    shard=self.shard_id,
                    lo=snapshot.lo,
                    hi=snapshot.hi,
                    epoch=snapshot.epoch,
                    queries=int(Qs.shape[0]),
                    probes=probes,
                ):
                    if self.inject_delay_s > 0:
                        time.sleep(self.inject_delay_s)
                    results, used_ann = self.score(
                        Qs, top, threshold,
                        probes=probes, exact=exact, snapshot=snapshot,
                    )
            except Exception as exc:  # noqa: BLE001 — a query must not kill the worker
                return {"error": repr(exc)}
            self.requests_served += 1
            return {
                "shard": self.shard_id,
                "epoch": snapshot.epoch,
                "results": results,
                "ann": used_ann,
            }
        if op == "stats":
            # Metrics federation: ship this process's whole registry; the
            # router labels it per worker before merging the fleet view.
            return {
                "shard": self.shard_id,
                "epoch": self.current.epoch,
                "snapshot": registry.snapshot(),
            }
        if op == "trace":
            trace_id = message.get("trace_id")
            if not isinstance(trace_id, str) or not trace_id:
                return {"error": "'trace_id' must be a non-empty string"}
            return {
                "shard": self.shard_id,
                "spans": [s.to_dict() for s in spans_for_trace(trace_id)],
            }
        return {"error": f"unknown op {op!r}"}


# --------------------------------------------------------------------- #
# the socket loop
# --------------------------------------------------------------------- #
class _FrameHandler(socketserver.BaseRequestHandler):
    """One connection: read frames until EOF, answer each in turn."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        sock = self.request
        while True:
            try:
                message = recv_frame(sock)
            except (ConnectionError, OSError, ClusterError):
                # A malformed frame leaves the stream out of sync: drop
                # this connection; the router reconnects on a fresh one.
                return
            if message is None:
                return
            try:
                response = self.server.worker.handle(message)
            except Exception as exc:  # noqa: BLE001 — keep serving
                response = {"error": repr(exc)}
            if "id" in message:
                response["id"] = message["id"]
            try:
                send_frame(sock, response)
            except (ConnectionError, OSError):
                return


class WorkerServer(socketserver.ThreadingTCPServer):
    """Threaded frame server around one :class:`ShardWorker`.

    Threads are the right shape here: the GEMM releases the GIL, the
    shard arrays are read-only, and the router keeps one long-lived
    connection (plus occasional hedge one-shots), so thread count stays
    tiny.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], worker: ShardWorker):
        super().__init__(address, _FrameHandler)
        self.worker = worker


def serve_shard(
    worker: ShardWorker,
    host: str = "127.0.0.1",
    port: int = 0,
) -> WorkerServer:
    """Bind a :class:`WorkerServer`; the caller runs ``serve_forever``."""
    return WorkerServer((host, port), worker)


# --------------------------------------------------------------------- #
# the process entry point (`repro cluster worker`)
# --------------------------------------------------------------------- #
def run_worker(
    data_dir: pathlib.Path,
    plan_json: str,
    shard_id: int,
    *,
    replica: int = 0,
    host: str = "127.0.0.1",
    port: int = 0,
    tenant: str | None = None,
    out=None,
) -> int:
    """Open the checkpoint, verify the plan, serve until SIGTERM.

    The ready banner (``cluster worker <id> ready on <host>:<port> ...``)
    is the spawn contract with the supervisor: it is printed only after
    the model is mapped and the socket is bound, so a parsed banner
    means the worker can answer queries.
    """
    out = out if out is not None else sys.stdout
    plan = ShardPlan.from_json(plan_json)
    if plan.to_json() != plan_json:
        print(
            "error: shard plan is not in canonical form — router and "
            "worker disagree byte-for-byte",
            file=sys.stderr,
        )
        return 1

    try:
        epoch, model, ann = open_checkpoint(data_dir, plan)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    worker = ShardWorker(
        model, plan.shard(shard_id), epoch=epoch, ann=ann,
        data_dir=pathlib.Path(data_dir), replica=replica, tenant=tenant,
    )
    server = serve_shard(worker, host, port)
    bound_port = server.server_address[1]

    def _stop(*_args) -> None:
        # shutdown() must run off the serve_forever thread (it joins it).
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    # The supervisor's banner parse requires pid= to stay the last token.
    tenant_token = f"tenant={tenant} " if tenant is not None else ""
    print(
        f"cluster worker {shard_id} ready on {host}:{bound_port} "
        f"rows=[{worker.current.lo},{worker.current.hi}) epoch={epoch} "
        f"ann={'yes' if ann is not None else 'no'} replica={replica} "
        f"{tenant_token}pid={os.getpid()}",
        file=out, flush=True,
    )
    server.serve_forever()
    server.server_close()
    print(f"cluster worker {shard_id} drained", file=out, flush=True)
    return 0
