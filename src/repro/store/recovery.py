"""The one door into a checkpoint, and cold-start recovery through it.

This module owns the mapping between a live
:class:`~repro.updating.manager.LSIIndexManager` and its durable form;
the array layout is written and read here and nowhere else:

* :func:`capture_manager` flattens a manager into the ``(arrays, meta)``
  pair :mod:`repro.store.checkpoint` writes.  The split exploits the
  manager's structural invariant that under fold-in the serving model
  differs from the consolidated base model only by folded-in document
  rows — ``U``, ``Σ``, and the global weights are stored once, and so
  is ``V`` when nothing is pending (the serving model *is* the base);
* :func:`open_checkpoint` is the one path from a store data directory
  to an :class:`OpenedCheckpoint`: locate → verify → parse the manifest
  → read the arrays, each once.  Its decoders (``.model()``, ``.ann()``,
  ``.manager()`` = :func:`restore_manager`, the exact inverse of
  capture) share one construction of the serving model, so a query is
  always projected with the ``U_k, Σ_k`` of the epoch whose ``V_k`` it
  is scored against (Eq. 6);
* :func:`recover_manager` is the cold-start path: open the newest valid
  checkpoint (walking back past corrupt ones), cross-check the manifest
  document count against the rebuilt manager, then replay every WAL
  record past the checkpoint's LSN through the manager's normal entry
  points.  Because each maintenance action is a deterministic function
  of manager state, the replayed index is bit-identical to the one the
  crashed process would have had after its last fsynced record.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.model import LSIModel
from repro.errors import StoreCorruptError, StoreError
from repro.obs.metrics import registry
from repro.obs.tracing import span
from repro.serving.ann import ANN_ARRAY_NAMES, CoarseQuantizer
from repro.sparse.csc import CSCMatrix
from repro.store.checkpoint import (
    CHECKPOINTS_DIR,
    CheckpointInfo,
    checkpoint_bytes,
    checkpoint_info,
    latest_valid_checkpoint,
    read_arrays,
)
from repro.store.wal import WalRecord, scan_wal
from repro.text.tdm import TermDocumentMatrix
from repro.text.vocabulary import Vocabulary
from repro.updating.manager import IndexEvent, LSIIndexManager
from repro.weighting.schemes import WeightingScheme

__all__ = [
    "RecoveryReport",
    "OpenedCheckpoint",
    "capture_manager",
    "restore_manager",
    "open_checkpoint",
    "apply_record",
    "replay_wal",
    "recover_manager",
]


@dataclass
class RecoveryReport:
    """What one cold start did, for logs and the ``store inspect`` view."""

    checkpoint_id: int
    checkpoint_path: pathlib.Path
    checkpoint_created_unix: float
    checkpoint_bytes: int
    wal_lsn_start: int
    replayed_records: int
    torn_tail: bool
    n_documents: int
    problems: list[str] = field(default_factory=list)


# --------------------------------------------------------------------- #
# scheme (de)serialization — the manager accepts None, a name string, or
# a WeightingScheme; all three must round-trip through manifest JSON.
# --------------------------------------------------------------------- #
def _scheme_to_json(scheme) -> dict | str | None:
    if scheme is None or isinstance(scheme, str):
        return scheme
    if isinstance(scheme, WeightingScheme):
        return {"local": scheme.local, "global": scheme.global_}
    raise StoreError(f"cannot serialize weighting scheme {scheme!r}")


def _scheme_from_json(obj):
    if obj is None or isinstance(obj, str):
        return obj
    return WeightingScheme(obj["local"], obj["global"])


# --------------------------------------------------------------------- #
# capture / restore
# --------------------------------------------------------------------- #
def capture_manager(
    manager: LSIIndexManager,
) -> tuple[dict[str, np.ndarray], dict]:
    """Flatten a manager into checkpointable ``(arrays, meta)``.

    Cheap: every returned array is a reference to state the manager
    never mutates in place (maintenance replaces arrays wholesale), so
    the caller can release any lock before the arrays hit disk.  Only
    the small pending block is concatenated here.
    """
    base = manager._base_model
    model = manager.model
    vocab = model.vocabulary.to_list()
    if base.vocabulary.to_list() != vocab or (
        manager.tdm.vocabulary.to_list() != vocab
    ):
        raise StoreError(
            "manager vocabulary diverged between model, base model, and "
            "raw matrix — cannot checkpoint"
        )
    pending = (
        np.hstack([np.asarray(b) for b in manager._pending_counts])
        if manager._pending_counts
        else np.empty((model.n_terms, 0))
    )
    arrays = {
        "base_U": base.U,
        "base_s": base.s,
        "base_V": base.V,
        "base_gw": base.global_weights,
        "tdm_indptr": manager.tdm.matrix.indptr,
        "tdm_indices": manager.tdm.matrix.indices,
        "tdm_data": manager.tdm.matrix.data,
        "pending": pending,
    }
    if model.V is not base.V:
        # Rows are pending: the serving V is the base's plus their rows.
        # Otherwise (after initialize or any consolidation) the serving
        # model is the base, and its V is written and read back once.
        arrays["model_V"] = model.V
    if model.U is not base.U or model.s is not base.s:
        # Fold-in shares the base factors by reference, so the common
        # case stores U/Σ once.  The fast-update ingest kernel rotates
        # them per batch; capture the serving copies too so a checkpoint
        # taken mid-pending restores bit-identically.
        arrays["model_U"] = model.U
        arrays["model_s"] = model.s
    meta = {
        "k": manager.k,
        "seed": manager.seed,
        "scheme": _scheme_to_json(manager.scheme),
        "model_scheme": {
            "local": model.scheme.local,
            "global": model.scheme.global_,
        },
        "distortion_budget": manager.distortion_budget,
        "ingest_method": manager.ingest_method,
        "fast_update_rank": manager.fast_update_rank,
        "vocabulary": vocab,
        "doc_ids": list(model.doc_ids),
        "base_doc_ids": list(base.doc_ids),
        "tdm_doc_ids": list(manager.tdm.doc_ids),
        "tdm_shape": list(manager.tdm.shape),
        "pending_ids": list(manager._pending_ids),
        "provenance": model.provenance,
        "base_provenance": base.provenance,
        "n_documents": model.n_documents,
        "events": [
            {
                "action": e.action,
                "n_documents": e.n_documents,
                "pending_before": e.pending_before,
                "doc_loss": e.doc_loss,
                "reason": e.reason,
            }
            for e in manager.events  # bounded: manager.EVENT_WINDOW
        ],
    }
    return arrays, meta


def _decode_models(
    arrays: dict[str, np.ndarray], meta: dict
) -> tuple[LSIModel, LSIModel]:
    """``(base, serving)`` models of one checkpoint.

    Under fold-in the serving model is the base with more document rows
    (``U``/``Σ`` shared by reference — :func:`capture_manager` tests that
    identity); a checkpoint taken with fast-update batches pending
    carries the rotated serving ``U``/``Σ``, and they, not the base's,
    belong with the serving ``V``.  Without a ``model_V`` (nothing
    pending) the serving model shares the base's ``V`` — one array.
    """
    base = LSIModel(
        U=arrays["base_U"],
        s=arrays["base_s"],
        V=arrays["base_V"],
        vocabulary=Vocabulary(meta["vocabulary"]).freeze(),
        doc_ids=list(meta["base_doc_ids"]),
        scheme=WeightingScheme(
            meta["model_scheme"]["local"], meta["model_scheme"]["global"]
        ),
        global_weights=arrays["base_gw"],
        provenance=meta["base_provenance"],
    )
    model = replace(
        base,
        U=arrays.get("model_U", base.U),
        s=arrays.get("model_s", base.s),
        V=arrays.get("model_V", base.V),
        doc_ids=list(meta["doc_ids"]),
        provenance=meta["provenance"],
    )
    return base, model


def restore_manager(
    arrays: dict[str, np.ndarray], meta: dict
) -> LSIIndexManager:
    """Inverse of :func:`capture_manager` — a manager with no refit."""
    base, model = _decode_models(arrays, meta)
    vocabulary = base.vocabulary
    m, n = (int(x) for x in meta["tdm_shape"])
    tdm = TermDocumentMatrix(
        CSCMatrix(
            (m, n),
            np.asarray(arrays["tdm_indptr"]),
            np.asarray(arrays["tdm_indices"]),
            np.asarray(arrays["tdm_data"]),
        ),
        vocabulary,
        list(meta["tdm_doc_ids"]),
    )
    pending = np.asarray(arrays["pending"], dtype=np.float64)
    return LSIIndexManager.restore(
        tdm=tdm,
        k=int(meta["k"]),
        model=model,
        base_model=base,
        pending_counts=[pending] if pending.shape[1] else [],
        pending_ids=meta["pending_ids"],
        events=[IndexEvent(**e) for e in meta["events"]],
        scheme=_scheme_from_json(meta["scheme"]),
        distortion_budget=float(meta["distortion_budget"]),
        seed=int(meta["seed"]),
        # Absent in pre-writable-cluster checkpoints: default to the
        # historical fold-in behaviour.
        ingest_method=meta.get("ingest_method", "fold-in"),
        fast_update_rank=int(meta.get("fast_update_rank", 8)),
    )


# --------------------------------------------------------------------- #
# the door: locate → verify → parse → read, once
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class OpenedCheckpoint:
    """One checkpoint, its manifest parsed and its arrays read (or
    mapped) exactly once.

    A transient — decode what the caller serves and drop it: the parsed
    manifest holds every label of the collection (megabytes on a large
    store) and must not stay referenced from a serving process.
    """

    info: CheckpointInfo
    arrays: dict[str, np.ndarray]
    #: Corrupt newer checkpoints the locate step walked past.
    problems: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """The checkpoint's directory name (what a plan pins)."""
        return self.info.path.name

    @property
    def epoch(self) -> int:
        """The logical index version the checkpoint sealed."""
        return int(self.info.meta.get("epoch", 0))

    def _decode(self, decode):
        # A checkpoint can pass its CRCs and still lack an array or a
        # manifest key (written by another tool, or by hand).
        try:
            return decode(self.arrays, self.info.meta)
        except KeyError as exc:
            raise StoreCorruptError(
                f"checkpoint {self.info.path} has no array or manifest "
                f"key {exc.args[0]!r}"
            ) from exc

    def model(self) -> LSIModel:
        """The queryable model; mapped arrays stay mapped until touched."""
        return self._decode(_decode_models)[1]

    def ann(self) -> CoarseQuantizer | None:
        """The checkpoint's coarse quantizer — or ``None``.

        Format-1 checkpoints (and format-2 ones written with ANN
        training disabled) carry none; callers fall back to the exact
        scan, and the ``store.ann_missing`` gauge makes a fleet serving
        without its probe index visible.
        """
        if not all(name in self.arrays for name in ANN_ARRAY_NAMES):
            registry.set_gauge("store.ann_missing", 1)
            return None
        registry.set_gauge("store.ann_missing", 0)
        return CoarseQuantizer.from_arrays(
            self.arrays, seed=self.info.meta.get("ann", {}).get("seed", 0)
        )

    def manager(self) -> LSIIndexManager:
        """Full recovery state (:func:`restore_manager`)."""
        return self._decode(restore_manager)


def _open(
    checkpoints: pathlib.Path, name: str, *, mmap: bool
) -> OpenedCheckpoint:
    if name:
        path = checkpoints / name
        if path.parent != checkpoints or not path.is_dir():
            raise StoreError(
                f"the plan covers checkpoint {name} but it is not under "
                f"{checkpoints} — store changed under the cluster"
            )
        info, problems = checkpoint_info(path), []
    else:
        info, problems = latest_valid_checkpoint(checkpoints)
        if info is None:
            detail = f" ({'; '.join(problems)})" if problems else ""
            raise StoreError(
                f"no valid checkpoint under {checkpoints}{detail}"
            )
    arrays = read_arrays(info, mmap=mmap)
    return OpenedCheckpoint(info, arrays, tuple(problems))


def open_checkpoint(
    data_dir: pathlib.Path, name: str = "", *, mmap: bool = True
) -> OpenedCheckpoint:
    """Open one checkpoint of the store under ``data_dir``.

    With a ``name`` (a shard plan's, or a seal this process just wrote)
    exactly that checkpoint is opened, unverified: O(header) when
    mapped.  Otherwise the newest checkpoint that passes verification
    is — one CRC pass over its array files, walking back past corrupt
    ones.  Reflects the last *checkpoint*, not the WAL tail.  Raises
    :class:`StoreError` when there is nothing to open.
    """
    return _open(pathlib.Path(data_dir) / CHECKPOINTS_DIR, name, mmap=mmap)


# --------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------- #
def apply_record(manager: LSIIndexManager, record: WalRecord) -> None:
    """Apply one WAL record through the manager's normal entry points.

    A record can pass its CRC and still not be one the store's writer
    logged (another tool wrote it, or a hand): a payload that writer
    (:meth:`DurableIndexStore.add_counts
    <repro.store.durable.DurableIndexStore.add_counts>`) would have
    refused is a :class:`StoreCorruptError` naming the record.
    """
    where = f"write-ahead log record {record.lsn}"
    if record.op != "add_counts":
        raise StoreCorruptError(f"{where} has unknown op {record.op!r}")
    for key in ("counts", "doc_ids"):
        if key not in record.payload:
            raise StoreCorruptError(f"{where} (add_counts) has no {key!r}")
    counts, doc_ids = record.payload["counts"], record.payload["doc_ids"]
    m = manager.model.n_terms
    if not (
        isinstance(doc_ids, list)
        and isinstance(counts, np.ndarray)
        and counts.dtype.kind in "fiu"
        and counts.shape == (m, len(doc_ids))
    ):
        raise StoreCorruptError(
            f"{where} (add_counts) holds no {m}-row count block with one "
            "id per column"
        )
    manager.add_counts(counts, doc_ids)


def replay_wal(
    opened: OpenedCheckpoint, wal_path: pathlib.Path
) -> tuple[LSIIndexManager, RecoveryReport]:
    """Rebuild the manager of an opened checkpoint and replay the WAL
    suffix past it.

    Raises :class:`StoreCorruptError` when the surviving state is
    internally inconsistent (manifest/doc-count mismatch, a gap between
    the checkpoint's WAL position and the log's first surviving record).
    """
    info = opened.info
    with span("store.recover"):
        manager = opened.manager()
        if manager.n_documents != int(info.meta["n_documents"]):
            raise StoreCorruptError(
                f"checkpoint {info.path.name} manifest records "
                f"{info.meta['n_documents']} documents but the recovered "
                f"index has {manager.n_documents}"
            )
        wal_lsn = int(info.meta.get("wal_lsn", 0))
        scan = scan_wal(wal_path)
        replayed = 0
        expected = wal_lsn + 1
        for record in scan.records:
            if record.lsn <= wal_lsn:
                continue
            if record.lsn != expected:
                raise StoreCorruptError(
                    f"write-ahead log gap: checkpoint "
                    f"{info.path.name} ends at LSN {wal_lsn} but the "
                    f"next surviving record is LSN {record.lsn} "
                    f"(expected {expected})"
                )
            apply_record(manager, record)
            replayed += 1
            expected += 1
        registry.set_gauge("store.last_recovery_replayed", replayed)
        registry.inc("store.recoveries_total")
        report = RecoveryReport(
            checkpoint_id=info.checkpoint_id,
            checkpoint_path=info.path,
            checkpoint_created_unix=float(info.manifest["created_unix"]),
            checkpoint_bytes=checkpoint_bytes(info),
            wal_lsn_start=wal_lsn,
            replayed_records=replayed,
            torn_tail=scan.torn_tail,
            n_documents=manager.n_documents,
            problems=list(opened.problems) + list(scan.problems),
        )
        return manager, report


def recover_manager(
    checkpoints_dir: pathlib.Path, wal_path: pathlib.Path
) -> tuple[LSIIndexManager, RecoveryReport]:
    """Cold-start: newest valid checkpoint + WAL suffix replay.

    Raises :class:`StoreError` when no valid checkpoint exists, and
    :class:`StoreCorruptError` as :func:`replay_wal` does.
    """
    opened = _open(pathlib.Path(checkpoints_dir), "", mmap=False)
    return replay_wal(opened, wal_path)
