"""Epoch handles: one immutable view of one sealed checkpoint.

The writable cluster changes state by *replacing* a single reference,
never by mutating shared structures — the same discipline
:class:`repro.server.state.EpochSnapshot` uses in-process.  An
:class:`EpochHandle` bundles everything the front end needs to answer
one query consistently — the projection model, the checkpoint identity,
and the :class:`~repro.cluster.plan.ShardPlan` that scatter must use —
so a request that snapshots the handle at entry keeps scoring against
one epoch even while the primary writer seals, bumps, and publishes the
next one.  Workers hold the same invariant on their side: the scoring
state for the superseded epoch stays alive until the bump *after* the
one that replaced it, so in-flight queries land on matching state and
zero queries drop across a bump.

Epoch numbering is the store's WAL LSN at seal time (see
``DurableIndexStore.checkpoint``): strictly increasing with every
acknowledged write, equal across bit-identical recoveries.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.cluster.placement import ReplicaPlan
from repro.cluster.plan import ShardPlan
from repro.core.model import LSIModel
from repro.errors import StoreError
from repro.serving.ann import CoarseQuantizer
from repro.store.checkpoint import (
    CheckpointInfo,
    latest_valid_checkpoint,
    list_checkpoints,
)
from repro.store.mmap_io import open_checkpoint_ann, open_checkpoint_model

__all__ = [
    "EpochHandle",
    "find_checkpoint",
    "open_checkpoint",
    "handle_for_checkpoint",
    "latest_handle",
]


@dataclass(frozen=True)
class EpochHandle:
    """Everything one request needs from one epoch, immutably.

    ``model`` is the memory-mapped checkpoint model (vocabulary, ``U``,
    ``Σ`` for query projection; ``doc_ids`` for result labelling),
    ``ann`` records whether the checkpoint carries a trained coarse
    quantizer, and ``plan`` is the shard plan pinned against exactly
    this checkpoint — scattering with any other plan would mix epochs.
    """

    epoch: int
    checkpoint: str
    model: LSIModel
    ann: bool
    plan: ReplicaPlan

    @property
    def n_documents(self) -> int:
        """Documents this epoch serves."""
        return self.model.n_documents


def find_checkpoint(data_dir: pathlib.Path, name: str = "") -> CheckpointInfo:
    """The checkpoint called ``name`` under a store, else the newest one
    that passes verification; :class:`~repro.errors.StoreError` if none.

    Nothing is mapped: the standby's tail reads the epoch off the
    manifest here and opens the checkpoint only when it is new.
    """
    from repro.store.durable import STORE_LAYOUT

    checkpoints = pathlib.Path(data_dir) / STORE_LAYOUT["checkpoints"]
    if name:
        for info in list_checkpoints(checkpoints):
            if info.path.name == name:
                return info
        raise StoreError(
            f"the plan covers checkpoint {name} but it is not under "
            f"{checkpoints} — store changed under the cluster"
        )
    info, problems = latest_valid_checkpoint(checkpoints)
    if info is None:
        detail = f" ({'; '.join(problems)})" if problems else ""
        raise StoreError(f"no valid checkpoint under {checkpoints}{detail}")
    return info


def open_checkpoint(
    data_dir: pathlib.Path, plan: ShardPlan | ReplicaPlan | None = None
) -> tuple[str, int, LSIModel, CoarseQuantizer | None]:
    """Locate one checkpoint of a store and map it: the cluster's one door
    from a data directory to ``(checkpoint_name, epoch, model, ann)``.

    With a ``plan`` that names a checkpoint, exactly that one is opened —
    under a writable cluster the store may already hold a *newer* seal (a
    restart racing the writer); a worker starts on the plan's epoch and
    catches up through the normal bump broadcast.  Otherwise the newest
    valid checkpoint is.  Either way a given plan must agree with what is
    on disk (epoch and document count) before anything scores against
    it.  The model and the optional quantizer (a pre-format-2 checkpoint
    has none) are memory-mapped, so the open is O(header).  Every
    failure is a :class:`~repro.errors.StoreError`.
    """
    info = find_checkpoint(data_dir, plan.checkpoint if plan is not None else "")
    epoch = int(info.meta.get("epoch", 0))
    if plan is not None and epoch != plan.epoch:
        raise StoreError(
            f"checkpoint {info.path.name} carries epoch {epoch} but the "
            f"plan says {plan.epoch}"
        )
    model = open_checkpoint_model(info.path, mmap=True)
    if plan is not None and model.n_documents != plan.n_documents:
        raise StoreError(
            f"checkpoint has {model.n_documents} documents but the plan "
            f"covers {plan.n_documents}"
        )
    return info.path.name, epoch, model, open_checkpoint_ann(info.path, mmap=True)


def _handle(
    checkpoint: str,
    epoch: int,
    model: LSIModel,
    ann: CoarseQuantizer | None,
    n_workers: int,
    replication: int,
) -> EpochHandle:
    plan = ReplicaPlan.compute(
        model.n_documents,
        n_workers,
        replication,
        epoch=epoch,
        checkpoint=checkpoint,
    )
    return EpochHandle(
        epoch=epoch,
        checkpoint=checkpoint,
        model=model,
        ann=ann is not None,
        plan=plan,
    )


def handle_for_checkpoint(
    path: pathlib.Path,
    meta: dict,
    n_workers: int,
    *,
    replication: int = 1,
) -> EpochHandle:
    """Build the handle for a checkpoint this process just sealed.

    ``meta`` is the checkpoint manifest's ``meta`` block (the writer has
    it from the fresh seal); the model is memory-mapped, so this is
    O(header) and safe to run on the writer's bump path.  ``n_workers``
    is the worker *budget*; ``replication`` carves it into
    ``n_workers // replication`` ranges with R replicas each (at the
    default R=1 the plan is the classic one-worker-per-shard layout).
    """
    return _handle(
        path.name,
        int(meta.get("epoch", 0)),
        open_checkpoint_model(path, mmap=True),
        open_checkpoint_ann(path, mmap=True),
        n_workers,
        replication,
    )


def latest_handle(
    data_dir: pathlib.Path, n_workers: int, *, replication: int = 1
) -> EpochHandle:
    """The handle for the newest valid checkpoint under ``data_dir``."""
    return _handle(*open_checkpoint(data_dir), n_workers, replication)
