"""Deterministic shard plans: who scores which rows of the shared space.

A cluster serves one LSI model — the paper's single-space TREC design —
split into contiguous document-row ranges, one per worker process.  The
router and every worker must agree on that split *exactly*: the merge
(:func:`repro.parallel.sharding.merge_topk`) is only element-identical
to a flat search when shard lists arrive in document order with no row
claimed twice or dropped.  So the plan is not negotiated, it is
computed — :meth:`ShardPlan.compute` derives the ranges from the one
canonical :func:`~repro.parallel.sharding.shard_bounds` partition — and
then pinned: the supervisor hands each worker
the plan's canonical JSON on its command line, and the worker refuses
to serve unless (a) re-serializing the parsed plan reproduces those
bytes, (b) recomputing the partition from ``(n_documents, n_workers,
replication)`` reproduces the ranges, and (c) the checkpoint it opened
matches the plan's ``epoch``/``checkpoint`` stamp.  Any version or
state skew between router and worker fails at spawn, not as silently
wrong merges.

Replication is placement over the same ranges, computed the same way:
``n_workers`` slots carve ``n_workers // replication`` ranges, and
replica ``r`` of range ``s`` is worker slot

    ``worker_id = r * n_shards + s``

so no two replicas of a range share a worker, and replica 0 of every
range occupies worker ids ``[0, n_shards)`` — at replication 1 worker
ids *equal* shard ids.  The data layout, and therefore the merge
contract, does not depend on R.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.errors import ClusterConfigError, ClusterError, ShapeError
from repro.parallel.sharding import shard_bounds

__all__ = ["PLAN_FORMAT", "ShardRange", "ShardPlan", "check_topology"]

#: Bumped on any change to the plan's JSON shape or partition math.
PLAN_FORMAT = "repro-cluster-plan/2"


def check_topology(n_workers: int, replication: int) -> None:
    """Raise :class:`~repro.errors.ClusterConfigError` unless
    ``n_workers`` slots can hold ``replication`` distinct replicas of
    every range."""
    if replication < 1:
        raise ClusterConfigError(
            f"replication factor must be >= 1, got {replication}"
        )
    if n_workers < 1:
        raise ClusterConfigError(
            f"worker budget must be >= 1, got {n_workers}"
        )
    if replication > n_workers:
        raise ClusterConfigError(
            f"replication {replication} exceeds the worker budget: "
            f"every shard range needs {replication} distinct workers "
            f"but only {n_workers} were requested — raise --workers "
            f"to at least {replication} or lower --replication"
        )


@dataclass(frozen=True)
class ShardRange:
    """One worker's slice of the document rows: ``[lo, hi)``."""

    shard_id: int
    lo: int
    hi: int

    def as_pair(self) -> list[int]:
        """``[lo, hi]`` — the JSON/readback form of the range."""
        return [self.lo, self.hi]


@dataclass(frozen=True)
class ShardPlan:
    """The full cluster layout, serializable to canonical JSON.

    ``epoch`` and ``checkpoint`` stamp which durable-store snapshot the
    plan covers; workers opening a *different* checkpoint (a compaction
    or writer restart racing the spawn) refuse to start rather than
    serve rows from a space the router is not merging in.
    """

    n_documents: int
    #: Number of *ranges* (the merge arity), not worker processes.
    n_shards: int
    #: Worker slots serving each range.
    replication: int
    epoch: int
    checkpoint: str
    shards: tuple[ShardRange, ...]

    # ------------------------------------------------------------------ #
    @classmethod
    def compute(
        cls,
        n_documents: int,
        n_workers: int,
        replication: int = 1,
        *,
        epoch: int = 0,
        checkpoint: str = "",
    ) -> "ShardPlan":
        """The canonical plan for ``n_documents`` rows over ``n_workers``.

        ``n_workers // replication`` ranges are carved (a remainder of
        workers goes unused rather than leaving one range under-
        replicated); raises :class:`~repro.errors.ClusterConfigError`
        when the topology is impossible.
        """
        n_workers, replication = int(n_workers), int(replication)
        check_topology(n_workers, replication)
        n_shards = n_workers // replication
        ranges = tuple(
            ShardRange(i, lo, hi)
            for i, (lo, hi) in enumerate(shard_bounds(n_documents, n_shards))
        )
        return cls(
            n_documents=int(n_documents),
            n_shards=n_shards,
            replication=replication,
            epoch=int(epoch),
            checkpoint=str(checkpoint),
            shards=ranges,
        )

    # ------------------------------------------------------------------ #
    def shard(self, shard_id: int) -> ShardRange:
        """The range assigned to ``shard_id``."""
        if not 0 <= shard_id < len(self.shards):
            raise ShapeError(
                f"shard {shard_id} out of range for {len(self.shards)} shards"
            )
        return self.shards[shard_id]

    # ------------------------------------------------------------------ #
    # placement
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        """Worker processes the plan occupies (= ranges x replication)."""
        return self.n_shards * self.replication

    def quorum(self) -> int:
        """Replicas of a range that must remap before a bump completes."""
        return self.replication // 2 + 1

    def worker_ids(self) -> list[int]:
        """Every worker slot id, ascending."""
        return list(range(self.n_workers))

    def replica_set(self, shard_id: int) -> tuple[int, ...]:
        """The worker slots serving range ``shard_id``, replica index
        order.  All distinct — a worker dying never costs two copies."""
        self.shard(shard_id)  # validates the id
        return tuple(
            r * self.n_shards + shard_id for r in range(self.replication)
        )

    def range_of(self, worker_id: int) -> int:
        """The shard range worker slot ``worker_id`` serves."""
        return self._slot(worker_id) % self.n_shards

    def replica_of(self, worker_id: int) -> int:
        """The replica index worker slot ``worker_id`` occupies."""
        return self._slot(worker_id) // self.n_shards

    def _slot(self, worker_id: int) -> int:
        if not 0 <= int(worker_id) < self.n_workers:
            raise ClusterError(
                f"worker {worker_id} out of range for "
                f"{self.n_workers} worker slots"
            )
        return int(worker_id)

    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        """Canonical byte-stable serialization (sorted keys, no spaces).

        Two processes computing the same plan produce the *same bytes*,
        which is what lets a worker verify agreement by comparison
        instead of trust.
        """
        return json.dumps(
            {
                "format": PLAN_FORMAT,
                "n_documents": self.n_documents,
                "n_workers": self.n_workers,
                "replication": self.replication,
                "epoch": self.epoch,
                "checkpoint": self.checkpoint,
                "shards": [s.as_pair() for s in self.shards],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ShardPlan":
        """Parse and *verify* a plan: the ranges must be recomputable.

        A plan whose shard table differs from the canonical partition of
        its own ``(n_documents, n_workers, replication)`` — hand-edited,
        truncated, or produced by a process with different partition
        math — raises :class:`~repro.errors.ClusterError`.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ClusterError(f"shard plan is not valid JSON: {exc}")
        if not isinstance(data, dict) or data.get("format") != PLAN_FORMAT:
            raise ClusterError(
                f"shard plan format {data.get('format')!r} is not "
                f"{PLAN_FORMAT!r}" if isinstance(data, dict)
                else "shard plan must be a JSON object"
            )
        try:
            plan = cls.compute(
                int(data["n_documents"]),
                int(data["n_workers"]),
                int(data["replication"]),
                epoch=int(data["epoch"]),
                checkpoint=str(data["checkpoint"]),
            )
            claimed = [list(map(int, pair)) for pair in data["shards"]]
        except ClusterConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ClusterError(f"shard plan is missing fields: {exc!r}")
        if claimed != [s.as_pair() for s in plan.shards]:
            raise ClusterError(
                "shard plan ranges do not match the canonical partition "
                f"of n={plan.n_documents} over {plan.n_workers} workers at "
                f"replication {plan.replication} — router/worker partition "
                "math disagrees"
            )
        return plan
