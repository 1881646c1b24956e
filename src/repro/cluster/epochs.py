"""Epoch handles: one immutable view of one sealed checkpoint.

The writable cluster changes state by *replacing* a single reference,
never by mutating shared structures — the same discipline
:class:`repro.serving.snapshot.EpochSnapshot` uses in-process.  An
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

from repro.cluster.plan import ShardPlan
from repro.core.model import LSIModel
from repro.errors import StoreError
from repro.serving.ann import CoarseQuantizer
from repro.store.recovery import open_checkpoint as open_store_checkpoint

__all__ = ["EpochHandle", "open_checkpoint"]


@dataclass(frozen=True)
class EpochHandle:
    """Everything one request needs from one epoch, immutably.

    ``model`` is the memory-mapped checkpoint model (vocabulary, ``U``,
    ``Σ`` for query projection; ``doc_ids`` for result labelling), and
    ``plan`` is the shard plan pinned against exactly this checkpoint —
    scattering with any other plan would mix epochs.
    """

    epoch: int
    checkpoint: str
    model: LSIModel
    plan: ShardPlan

    @property
    def n_documents(self) -> int:
        """Documents this epoch serves."""
        return self.model.n_documents

    @classmethod
    def open(
        cls,
        data_dir: pathlib.Path,
        n_workers: int,
        *,
        replication: int = 1,
        checkpoint: str = "",
    ) -> "EpochHandle":
        """The handle for one checkpoint under ``data_dir``: the one this
        process just sealed when ``checkpoint`` names it (mapped by
        name, O(header) — safe on the writer's bump path), else the
        newest valid one.

        ``n_workers`` is the worker *budget*; ``replication`` carves it
        into ``n_workers // replication`` ranges with R replicas each
        (at the default R=1 the plan is the classic one-worker-per-shard
        layout).
        """
        opened = open_store_checkpoint(data_dir, checkpoint)
        model = opened.model()
        plan = ShardPlan.compute(
            model.n_documents,
            n_workers,
            replication,
            epoch=opened.epoch,
            checkpoint=opened.name,
        )
        return cls(
            epoch=opened.epoch,
            checkpoint=opened.name,
            model=model,
            plan=plan,
        )


def open_checkpoint(
    data_dir: pathlib.Path, plan: ShardPlan
) -> tuple[int, LSIModel, CoarseQuantizer]:
    """Map the checkpoint a plan pins: ``(epoch, model, ann)`` for a
    shard worker (spawn and bump).

    When the plan names a checkpoint, exactly that one is opened, by
    name and O(header) — under a writable cluster the store may already
    hold a *newer* seal (a restart racing the writer); a worker starts
    on the plan's epoch and catches up through the normal bump
    broadcast.  Otherwise the newest valid checkpoint is.  Either way
    the plan must agree with what is on disk (epoch and document count)
    before anything scores against it.  The model and the quantizer
    are memory-mapped.
    Every failure is a :class:`~repro.errors.StoreError`.
    """
    opened = open_store_checkpoint(data_dir, plan.checkpoint)
    if opened.epoch != plan.epoch:
        raise StoreError(
            f"checkpoint {opened.name} carries epoch {opened.epoch} but the "
            f"plan says {plan.epoch}"
        )
    model = opened.model()
    if model.n_documents != plan.n_documents:
        raise StoreError(
            f"checkpoint has {model.n_documents} documents but the plan "
            f"covers {plan.n_documents}"
        )
    return opened.epoch, model, opened.ann()
