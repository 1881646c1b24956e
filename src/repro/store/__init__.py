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
(``ServingState.for_store``) and a writable ``repro.cluster`` fleet
opens one with its epoch advance as the per-tick hook.  CLI surface: ``python -m repro serve
<src> --data-dir DIR`` (warm restarts resume the exact pre-crash index)
and ``python -m repro store {inspect,verify,compact} DIR``.
"""
