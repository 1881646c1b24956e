"""Durable index storage: checkpoints, write-ahead log, crash recovery.

The paper's toolchain keeps a persistent "LSI database" of ``U_k``,
``Σ_k``, ``V_k`` plus labellings (§2), and its updating machinery
(folding-in Eq. 7–8, SVD-updating Eq. 10–12) assumes an index that
survives and evolves across sessions.  This package is that substrate
for the serving stack — the durability layer that turns the in-memory
:class:`~repro.updating.manager.LSIIndexManager` into an index a
production system can restart, kill, and audit:

* :mod:`repro.store.checkpoint` — atomic, checksummed, versioned
  snapshots (temp dir + fsync + rename; CRC32 per array; JSON manifest
  with format version, epoch, doc count, scheme);
* :mod:`repro.store.wal` — the append-only, torn-tail-tolerant
  write-ahead log that records every document batch between
  checkpoints, fsynced before acknowledgment;
* :mod:`repro.store.recovery` — the one door into a checkpoint
  (:func:`open_checkpoint`: locate → verify → decode, each once; owns
  the array layout) and cold start through it: rebuild the manager,
  replay the WAL suffix, verify the result against the manifest;
* :mod:`repro.store.mmap_io` — the read-only replica's two calls of
  that door (``open_latest_model`` / ``open_latest_ann``, mapped with
  ``np.load(mmap_mode="r")``);
* :mod:`repro.store.sealing` — :class:`CheckpointPolicy` (every N
  records / M seconds / on consolidation) and :class:`StoreWriter`, the
  one owner every serving lock holder opens, acknowledges, seals and
  closes its store through, without blocking the query path;
* :mod:`repro.store.lock` — the single-writer ``flock`` every
  read-write open holds, so a second writer cannot truncate or swap
  the live WAL under a running server;
* :mod:`repro.store.durable` — :class:`DurableIndexStore`, the data
  directory owner.

The package sits below every serving tier and imports none of them:
``repro.server`` builds its durable state over a store's owner
(``ServingState.for_store``) and ``repro.cluster``'s primary writer
adds the fleet's half to one.  CLI surface: ``python -m repro serve
<src> --data-dir DIR`` (warm restarts resume the exact pre-crash index)
and ``python -m repro store {inspect,verify,compact} DIR``.
"""

from repro.store.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointInfo,
    list_checkpoints,
    verify_checkpoint,
    write_checkpoint,
)
from repro.store.durable import (
    STORE_LAYOUT,
    DurableIndexStore,
    publish_store_gauges,
    read_store_status,
    verify_store,
)
from repro.store.lock import StoreLock
from repro.store.mmap_io import open_latest_ann, open_latest_model
from repro.store.recovery import (
    OpenedCheckpoint,
    RecoveryReport,
    capture_manager,
    open_checkpoint,
    recover_manager,
    restore_manager,
)
from repro.store.sealing import CheckpointPolicy, StoreWriter
from repro.store.wal import WalRecord, WriteAheadLog, scan_wal, verify_wal

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointInfo",
    "list_checkpoints",
    "verify_checkpoint",
    "write_checkpoint",
    "CheckpointPolicy",
    "StoreWriter",
    "STORE_LAYOUT",
    "DurableIndexStore",
    "StoreLock",
    "publish_store_gauges",
    "read_store_status",
    "verify_store",
    "open_checkpoint",
    "open_latest_ann",
    "open_latest_model",
    "OpenedCheckpoint",
    "RecoveryReport",
    "capture_manager",
    "recover_manager",
    "restore_manager",
    "WalRecord",
    "WriteAheadLog",
    "scan_wal",
    "verify_wal",
]
