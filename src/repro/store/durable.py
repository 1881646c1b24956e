"""The durable index store: WAL-ahead mutations over versioned checkpoints.

:class:`DurableIndexStore` owns one data directory *exclusively* — an
``flock`` on ``LOCK`` (:mod:`repro.store.lock`) refuses a second
writer, whose WAL open would truncate the live log's tail::

    <data-dir>/
      LOCK                         single-writer flock (advisory)
      checkpoints/ckpt-00000001/   versioned, checksummed snapshots
      wal.log                      fold-ins since the newest snapshot

and routes every index mutation through the write-ahead discipline:
validate → append + fsync to the WAL → apply to the
:class:`~repro.updating.manager.LSIIndexManager`.  An LSN handed back
is the durability acknowledgment — after any crash,
:func:`~repro.store.recovery.recover_manager` reproduces the exact
index that had absorbed every acknowledged mutation (bit-identical
``U, s, V``; see the determinism tests).  If the in-memory apply fails
*after* the WAL append, the record is rolled back (physically
truncated) before the error propagates — the log never holds a
mutation the live index refused, so recovery cannot diverge from what
was served.

Read-only surfaces — ``repro stats --data-dir``, ``repro store
inspect`` and ``repro store verify`` — go through
:func:`read_store_status` / :func:`publish_store_gauges` /
:func:`verify_store` instead of opening the store: they scan
checkpoint manifests and the WAL file without a write handle or the
lock, so they are safe to run against a directory a live server owns.

The store sits below every serving tier and imports none of them.
Whichever serving process holds the lock owns the store through the one
:class:`~repro.store.sealing.StoreWriter`: every ``/add`` and every seal
on its one thread, sealing on the store's own bookkeeping — dirty
records, checkpoint age, and the consolidations applied since the
capture.  The query path is untouched — readers score pinned epoch
snapshots lock-free, which is what keeps sealing off the latency
profile.

Maintenance: :meth:`DurableIndexStore.compact` folds the WAL into a
fresh checkpoint and truncates it (search results bit-identical, replay
cost reset to zero), and :meth:`close` performs the graceful-drain
flush ``repro serve`` runs on SIGTERM.
"""

from __future__ import annotations

import pathlib
import shutil
import threading
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.errors import ShapeError, StoreError, StoreLockedError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.serving.ann import CoarseQuantizer
from repro.store.checkpoint import (
    CHECKPOINTS_DIR,
    checkpoint_bytes,
    checkpoint_dirs,
    list_checkpoints,
    verify_checkpoint,
    write_checkpoint,
)
from repro.store.lock import LOCK_NAME, StoreLock
from repro.store.recovery import (
    RecoveryReport,
    capture_manager,
    checkpoint_summary,
    open_checkpoint,
    replay_wal,
)
from repro.store.wal import WriteAheadLog, scan_wal, verify_wal
from repro.updating.manager import IndexEvent, LSIIndexManager

__all__ = [
    "STORE_LAYOUT",
    "SealInfo",
    "DurableIndexStore",
    "read_store_status",
    "verify_store",
    "publish_store_gauges",
]

#: Fixed names inside a store data directory.
STORE_LAYOUT = {
    "checkpoints": CHECKPOINTS_DIR,
    "wal": "wal.log",
    "lock": LOCK_NAME,
}

#: Checkpoints kept on disk after pruning.  A writable cluster needs
#: three: the serving epoch, its predecessor (the workers' bump window)
#: and the next seal coexist.
RETAIN = 3


@dataclass(frozen=True)
class SealInfo:
    """What one sealed checkpoint covers — the epoch-bump handshake.

    A writable fleet's epoch advance turns this directly into the next
    :class:`~repro.cluster.plan.ShardPlan`: ``epoch`` is the WAL LSN
    the checkpoint captured (the store's logical version number),
    ``name``/``path`` pin the exact checkpoint workers must remap, and
    ``n_documents`` re-derives the shard ranges as the collection grows.
    """

    path: pathlib.Path
    name: str
    epoch: int
    wal_lsn: int
    n_documents: int


class DurableIndexStore:
    """Crash-recoverable home of one incrementally maintained index."""

    #: The newest checkpoint's coarse quantizer: the one the store was
    #: opened from, then the one each seal trains.
    ann: CoarseQuantizer

    def __init__(
        self,
        data_dir: pathlib.Path,
        manager: LSIIndexManager,
        wal: WriteAheadLog,
        *,
        last_recovery: RecoveryReport | None = None,
        dir_lock: StoreLock | None = None,
    ):
        self.data_dir = pathlib.Path(data_dir)
        self.manager = manager
        self.last_recovery = last_recovery
        self._wal = wal
        self._dir_lock = dir_lock  # single-writer flock on the data dir
        self._lock = threading.RLock()  # serializes mutations + capture
        # One snapshot at a time; re-entrant so ``compact`` can hold it
        # (with the writer lock) around a snapshot *and* the truncation.
        self._checkpoint_lock = threading.RLock()
        self._last_checkpoint_lsn = 0
        self._last_checkpoint_time = time.time()
        self._last_checkpoint_bytes = 0
        if last_recovery is not None:
            self._last_checkpoint_lsn = last_recovery.wal_lsn_start
            self._last_checkpoint_time = last_recovery.checkpoint_created_unix
            self._last_checkpoint_bytes = last_recovery.checkpoint_bytes
        # Consolidations applied, and how many of them the newest
        # checkpoint captured — both under the writer lock, so one
        # landing after a seal's capture still counts for the next seal,
        # and a failed seal forgets none.
        self._consolidations = 0
        self._checkpoint_consolidations = 0
        self._closed = False
        #: The newest checkpoint this handle opened or sealed.
        self.last_seal: SealInfo | None = None
        registry.set_gauge(
            "store.last_recovery_replayed",
            last_recovery.replayed_records if last_recovery else 0,
        )
        self.publish_gauges()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def paths(data_dir: pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
        """(checkpoints directory, WAL path) under ``data_dir``."""
        data_dir = pathlib.Path(data_dir)
        return (
            data_dir / STORE_LAYOUT["checkpoints"],
            data_dir / STORE_LAYOUT["wal"],
        )

    @classmethod
    def exists(cls, data_dir: pathlib.Path) -> bool:
        """Whether ``data_dir`` holds recoverable store state."""
        checkpoints_dir, wal_path = cls.paths(data_dir)
        return bool(checkpoint_dirs(checkpoints_dir)) or wal_path.exists()

    @classmethod
    def initialize(
        cls, data_dir: pathlib.Path, manager: LSIIndexManager
    ) -> "DurableIndexStore":
        """Seed a fresh store around an already-fitted manager.

        Writes checkpoint 1 immediately, so the store is recoverable
        from the moment this returns.  A failure removes whatever this
        call created (WAL, checkpoints, lockfile, the directory itself),
        so the same path can be initialized again.
        """
        if cls.exists(data_dir):
            raise StoreError(
                f"{data_dir} already contains a durable index store; "
                "open it instead of initializing over it"
            )
        data_dir = pathlib.Path(data_dir)
        checkpoints_dir, wal_path = cls.paths(data_dir)
        created = [
            p for p in (checkpoints_dir, data_dir / LOCK_NAME, data_dir)
            if not p.exists()
        ]
        dir_lock = StoreLock.acquire(data_dir)
        wal = None
        try:
            checkpoints_dir.mkdir(parents=True, exist_ok=True)
            wal = WriteAheadLog(wal_path)
            store = cls(data_dir, manager, wal, dir_lock=dir_lock)
            store.seal(reason="initialize")
        except BaseException:
            if wal is not None:
                wal.close()
            # exists() was false, so any WAL is this call's.
            wal_path.unlink(missing_ok=True)
            for path in created:  # children before their directory
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
            dir_lock.release()
            raise
        return store

    @classmethod
    def open(cls, data_dir: pathlib.Path) -> "DurableIndexStore":
        """Recover a store: newest valid checkpoint + WAL replay.

        The manager's configuration (``k``, scheme, budgets, seed) comes
        from the checkpoint manifest — a warm restart needs nothing but
        the data directory.  Raises :class:`~repro.errors.
        StoreLockedError` when another process owns the directory; use
        :func:`read_store_status` for lock-free read-only access.
        """
        dir_lock = StoreLock.acquire(data_dir)
        try:
            wal_path = cls.paths(data_dir)[1]
            opened = open_checkpoint(data_dir, mmap=False)
            ann = opened.ann()
            manager, report = replay_wal(opened, wal_path)
            wal = WriteAheadLog(wal_path, base_lsn=report.wal_lsn_start)
        except BaseException:
            dir_lock.release()
            raise
        store = cls(
            data_dir, manager, wal, last_recovery=report, dir_lock=dir_lock
        )
        store.ann = ann
        store.last_seal = SealInfo(
            opened.info.path, opened.name, opened.epoch, opened.wal_lsn,
            int(opened.info.meta["n_documents"]),
        )
        return store

    # ------------------------------------------------------------------ #
    # bookkeeping the checkpoint policy reads
    # ------------------------------------------------------------------ #
    @property
    def checkpoints_dir(self) -> pathlib.Path:
        """Where this store keeps its versioned checkpoints."""
        return self.paths(self.data_dir)[0]

    @property
    def wal(self) -> WriteAheadLog:
        """The live write-ahead log handle."""
        return self._wal

    @property
    def lock_generation(self) -> int:
        """The fencing generation this handle's lock acquired."""
        return self._dir_lock.generation if self._dir_lock is not None else 0

    @property
    def dirty_records(self) -> int:
        """WAL records not yet covered by a checkpoint."""
        return self._wal.last_lsn - self._last_checkpoint_lsn

    @property
    def seconds_since_checkpoint(self) -> float:
        """Wall-clock age of the newest checkpoint."""
        return max(0.0, time.time() - self._last_checkpoint_time)

    @property
    def consolidations_since_checkpoint(self) -> int:
        """Consolidations the newest checkpoint did not capture."""
        return self._consolidations - self._checkpoint_consolidations

    def publish_gauges(self) -> None:
        """Refresh the ``store.*`` gauges ``repro stats`` reports."""
        registry.set_gauge("store.wal_records", self._wal.n_records)
        registry.set_gauge("store.wal_bytes", self._wal.size_bytes)
        registry.set_gauge("store.dirty_records", self.dirty_records)
        registry.set_gauge(
            "store.checkpoint_age_seconds", self.seconds_since_checkpoint
        )
        registry.set_gauge(
            "store.checkpoint_bytes", self._last_checkpoint_bytes
        )

    # ------------------------------------------------------------------ #
    # the write-ahead mutation path
    # ------------------------------------------------------------------ #
    def _apply(self, op: str, payload: dict, apply) -> IndexEvent | None:
        """Append + fsync the record, then run ``apply`` on the manager.

        If ``apply`` raises past the upfront shape checks, the record is
        rolled back (physically truncated from the WAL) before the error
        propagates: its LSN was never acknowledged, and a record the
        live index never absorbed must not survive for recovery to
        replay — that either fails the next open or diverges recovered
        state from what was actually served.
        """
        if self._closed:
            raise StoreError(f"store {self.data_dir} is closed")
        t0 = time.perf_counter()
        mark = self._wal.mark()
        self._wal.append(op, payload)
        registry.observe("store.wal_append_seconds", time.perf_counter() - t0)
        registry.inc("store.wal_appends_total")
        try:
            event = apply()
        except BaseException:
            try:
                self._wal.rollback(mark)
                registry.inc("store.wal_rollbacks_total")
            except Exception:
                # The apply failure is the actionable error; a rollback
                # failure additionally halts the WAL (no further appends).
                registry.inc("store.wal_rollback_failures_total")
            raise
        # Only a true consolidation rewrites the factor matrices;
        # fast-update is a per-batch ingest kernel like fold-in.
        if event is not None and event.action in ("svd-update", "recompute"):
            self._consolidations += 1
        self.publish_gauges()
        return event

    def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> IndexEvent:
        """WAL-logged :meth:`LSIIndexManager.add_texts`.

        Texts are normalized to raw count columns against the current
        vocabulary *before* logging, by the manager's own
        :meth:`LSIIndexManager.count_texts`, so replay is independent of
        any future tokenizer change — the log stores exactly what the
        manager applied.
        """
        with self._lock:
            return self.add_counts(*self.manager.count_texts(texts, doc_ids))

    def add_counts(
        self, counts: np.ndarray, doc_ids: Sequence[str]
    ) -> IndexEvent:
        """WAL-logged :meth:`LSIIndexManager.add_counts`."""
        counts = np.atleast_2d(np.asarray(counts, dtype=np.float64))
        with self._lock:
            manager = self.manager
            if counts.shape[0] != manager.model.n_terms:
                raise ShapeError(
                    f"count block has {counts.shape[0]} rows for "
                    f"m={manager.model.n_terms}"
                )
            if counts.shape[1] != len(doc_ids):
                raise ShapeError("doc_ids length mismatch")
            return self._apply(
                "add_counts",
                {"counts": counts, "doc_ids": list(doc_ids)},
                lambda: manager.add_counts(counts, list(doc_ids)),
            )

    # ------------------------------------------------------------------ #
    # snapshots and maintenance
    # ------------------------------------------------------------------ #
    def _train_ann(self, model: LSIModel) -> CoarseQuantizer:
        """Train the next checkpoint's coarse quantizer.

        Cells are fitted to the coordinates queries are compared with —
        the captured *serving* model's ``V_k Σ_k`` (the manager never
        mutates it, so callers invoke this outside the writer lock).
        Deterministic given those coordinates and the manager's seed,
        which keeps recovered-then-recheckpointed stores bit-identical.
        """
        t0 = time.perf_counter()
        with span("store.ann_train"):
            quantizer = CoarseQuantizer.train(
                model.V, model.s, seed=self.manager.seed
            )
        registry.observe("store.ann_train_seconds", time.perf_counter() - t0)
        registry.inc("store.ann_trainings_total")
        return quantizer

    def seal(self, reason: str = "seal") -> SealInfo:
        """Snapshot current state into a fresh versioned checkpoint and
        describe exactly what was sealed — the :class:`SealInfo` an
        epoch bump needs (checkpoint name, epoch, covered document
        count).  The one capture → train → write → prune routine behind
        :meth:`checkpoint` and :meth:`compact` too.

        Holds the writer lock only long enough to capture array
        references (the manager never mutates arrays in place);
        quantizer training, serialization, checksumming, and fsync run
        unlocked, so queries — which never take these locks — are
        unaffected and concurrent ``/add`` s block for microseconds at
        worst.

        Fenced: if another writer adopted the directory since this
        store opened (the lockfile generation moved — a standby
        promoted over what it judged a dead primary), the seal is
        refused with :class:`~repro.errors.StoreLockedError` rather
        than interleaving two writers' checkpoint lines.  The fence is
        checked once per seal, never on the per-record append path.
        """
        if self._dir_lock is not None and not self._dir_lock.check():
            raise StoreLockedError(
                f"{self.data_dir} was adopted by another writer "
                f"(lock generation moved past "
                f"{self._dir_lock.generation}); this handle is fenced "
                "and must close instead of sealing"
            )
        with self._checkpoint_lock:
            t0 = time.perf_counter()
            with span("store.checkpoint", reason=reason):
                with self._lock:
                    arrays, meta = capture_manager(self.manager)
                    model = self.manager.model
                    wal_lsn = self._wal.last_lsn
                    consolidations = self._consolidations
                meta["wal_lsn"] = wal_lsn
                meta["epoch"] = wal_lsn  # logical index version
                meta["reason"] = reason
                quantizer = self._train_ann(model)
                arrays.update(quantizer.to_arrays())
                info = write_checkpoint(self.checkpoints_dir, arrays, meta)
            self.ann = quantizer
            self._last_checkpoint_lsn = wal_lsn
            self._checkpoint_consolidations = consolidations
            self._last_checkpoint_time = time.time()
            self._last_checkpoint_bytes = checkpoint_bytes(info)
            self.last_seal = SealInfo(
                path=info.path,
                name=info.path.name,
                epoch=wal_lsn,
                wal_lsn=wal_lsn,
                n_documents=int(meta["n_documents"]),
            )
            registry.inc("store.checkpoints_total")
            registry.observe(
                "store.checkpoint_seconds", time.perf_counter() - t0
            )
            for old in checkpoint_dirs(self.checkpoints_dir)[:-RETAIN]:
                shutil.rmtree(old, ignore_errors=True)
            self.publish_gauges()
            return self.last_seal

    def checkpoint(self, reason: str = "manual") -> pathlib.Path:
        """:meth:`seal`, returning just the new checkpoint's path — the
        perf ledger's timed seal (``ledger/layers.py``); the program
        seals through :meth:`seal`."""
        return self.seal(reason).path

    def compact(self) -> pathlib.Path:
        """Fold the WAL into a fresh checkpoint and truncate it.

        Blocks writers for the duration (an append between capture and
        truncation would be silently dropped otherwise); queries are
        unaffected.  Search results are bit-identical before and after
        — the checkpoint *is* the replayed state.
        """
        with self._checkpoint_lock, self._lock:
            path = self.seal("compact").path
            self._wal.truncate()
            self.publish_gauges()
        registry.inc("store.compactions_total")
        return path

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, *, flush: bool = True) -> None:
        """Graceful shutdown: flush, then close the WAL and release the
        lock (idempotent).

        ``flush=True`` writes a final checkpoint when the WAL holds
        records no checkpoint covers — the SIGTERM drain path, so a
        clean restart replays nothing.  The WAL handle and the lock are
        released even when that flush fails — a fenced handle's
        :class:`~repro.errors.StoreLockedError` still propagates, but
        the handle is closed, as the error tells its owner to do.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if flush and self.dirty_records > 0:
                self.seal("close")
        finally:
            self._wal.close()
            if self._dir_lock is not None:
                self._dir_lock.release()


# --------------------------------------------------------------------- #
# lock-free read-only views (safe against a directory a live server owns)
# --------------------------------------------------------------------- #
def read_store_status(data_dir: pathlib.Path) -> dict:
    """Describe a store directory without opening it.

    Scans checkpoint manifests and the WAL file read-only: no
    :class:`~repro.store.wal.WriteAheadLog` handle is created (so no
    tail truncation), nothing is written, and the single-writer lock is
    not taken.  It reports only counts the scan knows exactly: the
    documents held (the newest checkpoint's plus every ``add_counts``
    past it), the newest checkpoint's pending fold-ins, and the
    documents the WAL suffix adds — how many of those a consolidation
    has absorbed is known only after a replay.
    ``last_recovery_replayed`` reports what a cold start *would* replay.
    """
    data_dir = pathlib.Path(data_dir)
    checkpoints_dir, wal_path = DurableIndexStore.paths(data_dir)
    skipped: list[str] = []
    infos = list_checkpoints(checkpoints_dir, skipped)
    scan = scan_wal(wal_path)
    newest = infos[-1] if infos else None
    summaries = [checkpoint_summary(info) for info in infos]
    ckpt_lsn = int(newest.meta.get("wal_lsn", 0)) if newest else 0
    n_documents = int(newest.meta.get("n_documents", 0)) if newest else 0
    checkpoint_pending = summaries[-1]["pending"] if newest else 0
    would_replay = wal_documents = 0
    for record in scan.records:
        if record.lsn <= ckpt_lsn:
            continue
        would_replay += 1
        if record.op == "add_counts":
            wal_documents += len(record.payload.get("doc_ids", []))
    return {
        "data_dir": str(data_dir),
        "checkpoints": summaries,
        # Every checkpoint a reader accepts carries its quantizer.
        "ann": newest is not None,
        "wal": {
            "path": str(wal_path),
            "records": len(scan.records),
            "bytes": scan.valid_end if wal_path.exists() else 0,
            "last_lsn": scan.last_lsn,
        },
        "dirty_records": max(0, scan.last_lsn - ckpt_lsn),
        "n_documents": n_documents + wal_documents,
        "checkpoint_pending": checkpoint_pending,
        "wal_documents": wal_documents,
        "last_recovery_replayed": would_replay,
        "problems": skipped + list(scan.problems),
    }


def verify_store(data_dir: pathlib.Path) -> tuple[int, list[str]]:
    """Checksum-audit every checkpoint and the WAL without opening the
    store — lock-free like :func:`read_store_status`, so it is safe
    against a directory a live server owns.

    Returns ``(checkpoints audited, problems)``; no problems means
    clean.  Raises :class:`~repro.errors.StoreError` when ``data_dir``
    holds no store.
    """
    checkpoints_dir, wal_path = DurableIndexStore.paths(data_dir)
    problems: list[str] = []
    infos = list_checkpoints(checkpoints_dir, problems)
    if not infos and not problems and not wal_path.exists():
        raise StoreError(f"{data_dir} is not a store")
    problems += [p for info in infos for p in verify_checkpoint(info)]
    return len(infos), problems + verify_wal(wal_path)


def publish_store_gauges(data_dir: pathlib.Path) -> dict:
    """Publish the ``store.*`` gauges for ``repro stats --data-dir``.

    Read-only (see :func:`read_store_status`): unlike opening the
    store, this never recovers the index, takes the lock, or touches
    the live server's WAL.  Returns the status dict it derived the
    gauges from.
    """
    status = read_store_status(data_dir)
    newest = status["checkpoints"][-1] if status["checkpoints"] else None
    registry.set_gauge("store.wal_records", status["wal"]["records"])
    registry.set_gauge("store.wal_bytes", status["wal"]["bytes"])
    registry.set_gauge("store.dirty_records", status["dirty_records"])
    registry.set_gauge(
        "store.checkpoint_age_seconds",
        max(0.0, time.time() - float(newest["created_unix"]))
        if newest
        else 0.0,
    )
    registry.set_gauge(
        "store.checkpoint_bytes", newest["bytes"] if newest else 0
    )
    registry.set_gauge(
        "store.last_recovery_replayed", status["last_recovery_replayed"]
    )
    return status
