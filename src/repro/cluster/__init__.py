"""Multi-process cluster serving: shard workers behind a scatter router.

The single-process server (:mod:`repro.server`) scores every query in
one address space.  This package scales the same exact-search semantics
across *processes*: a deterministic :class:`~repro.cluster.plan.
ShardPlan` splits one checkpointed LSI space into contiguous row
ranges; each :mod:`~repro.cluster.worker` process memory-maps the
checkpoint (zero-copy — the page cache is shared between workers) and
scores only its rows; the :mod:`~repro.cluster.router` scatters query
batches, hedges stragglers, and merges per-shard top-k lists with
``merge_topk`` — so with all workers live, answers are element-identical
to the whole-model ``EpochSnapshot.search``.
The :mod:`~repro.cluster.supervisor` keeps workers alive (heartbeats,
eviction, backoff restarts), and while one is down the router serves
``partial=True`` responses naming the unscored row ranges instead of
failing.  :class:`~repro.cluster.service.ClusterService` packages the
whole thing behind the existing HTTP front end (``repro cluster
serve``).

With ``--writable`` the cluster also ingests: the service writes
through the durable store's one owner (the same
:class:`~repro.store.sealing.StoreWriter` ``repro serve --data-dir``
runs), which holds the write lock, WAL-logs every ``/add``
(acknowledged = fsynced, SIGKILL recovers bit-identically), applies
the Vecharynski-Saad fast SVD update per batch and seals format-4
checkpoints; each seal goes to
:meth:`~repro.cluster.service.ClusterService.advance`, the one path
that moves the fleet to a new epoch, which broadcasts epoch *bumps* —
each worker hot-remaps the new checkpoint behind an atomic swap while
keeping the previous epoch's state alive (:mod:`~repro.cluster.epochs`),
so in-flight queries finish against the epoch they started on and zero
queries drop across a bump.

With ``--replication R`` the cluster is highly available on both paths.
Reads: the :class:`~repro.cluster.plan.ShardPlan` assigns every
shard range R distinct worker processes; the router load-balances with
power-of-two-choices over live per-replica load (latency-history
tiebreak), fails a dead
or skewed replica over to a sibling before declaring rows missing, and
hedges stragglers across replicas — a SIGKILL'd worker costs nothing
while a sibling lives, and epoch bumps publish only once a quorum of
each range's replicas remap.  Writes: ``--standby`` runs a
:class:`~repro.cluster.standby.StandbyWriter` that tails checkpoints
and the WAL read-only (through the same ``advance``), and on primary
death adopts the store lock
(fencing generation bumped — see :mod:`repro.store.lock`), replays the
WAL tail, and resumes sealing with zero acked records lost.
"""
