"""Epoch-swapped serving state: atomic reader/writer model handoff.

The updating layer (§2.3 folding-in, §4 SVD-updating) replaces the
*model object* on every maintenance action and never touches the one it
superseded.  A long-lived server builds on exactly that: queries that
started before an update **finish** against the state they started on,
while new queries see the new state — the classic epoch (RCU-style)
handoff.

:class:`EpochSnapshot` pins everything one batch of queries needs — the
model, the precomputed norms and unit rows of a row range
(the whole model here; one shard's rows in a cluster worker), a
per-epoch projected-query cache — into one immutable object, and its
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
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.model import LSIModel
from repro.core.persistence import load_model
from repro.errors import ReproError, ShapeError
from repro.obs.metrics import registry
from repro.serving.ann import CoarseQuantizer
from repro.serving.index import scaled_documents, scaled_rows
from repro.serving.kernel import cosine_scores
from repro.serving.querycache import QueryVectorCache
from repro.serving.scan import ranked_scan
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.store.sealing import CheckpointPolicy, SealLoop
from repro.updating.manager import LSIIndexManager

__all__ = [
    "EpochSnapshot",
    "ServingState",
    "manager_from_texts",
    "train_quantizer",
]


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
        "epoch", "model", "lo", "hi", "scaled", "query_cache", "ann",
    )

    def __init__(
        self,
        epoch: int,
        model: LSIModel,
        *,
        lo: int = 0,
        hi: int | None = None,
        query_cache_size: int = 256,
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
        self.query_cache = QueryVectorCache(query_cache_size)
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
        """Eq. 6 for one query (text or token sequence), memoized in the
        per-epoch LRU (the call :meth:`LSIRetrieval.query_vector` makes)."""
        return self.query_cache.project(self.model, query)

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


class ServingState:
    """The mutable holder a server reads snapshots from and writes through.

    Three flavours:

    * **manager-backed** (:meth:`for_manager`) — document additions run
      through the :class:`LSIIndexManager` (fold-in immediately, §4.3
      drift-policy consolidation when the planner says so) and publish a
      new epoch;
    * **durable** (:meth:`for_store`) — the same, with each addition
      WAL-logged by the store first, and a seal loop for the backend
      serving this state to run;
    * **static** (:meth:`for_model`, or :meth:`open` over a store
      directory or a saved ``.npz``) — serve a fitted model read-only;
      :meth:`add_texts` raises.
    """

    def __init__(
        self,
        *,
        manager: LSIIndexManager | None = None,
        model: LSIModel | None = None,
        query_cache_size: int = 256,
        ann: CoarseQuantizer | None = None,
    ):
        if (manager is None) == (model is None):
            raise ReproError("ServingState needs a manager or a model, not both")
        self._manager = manager
        self._query_cache_size = query_cache_size
        self._write_lock = threading.Lock()
        #: The durable store additions go through (:meth:`for_store`),
        #: and the loop that seals it.
        self.store: DurableIndexStore | None = None
        self.seal_loop: SealLoop | None = None
        initial = manager.model if manager is not None else model
        self._snapshot = EpochSnapshot(
            0, initial, query_cache_size=query_cache_size, ann=ann
        )
        self._publish_gauges(self._snapshot)

    # ------------------------------------------------------------------ #
    @classmethod
    def for_manager(cls, manager: LSIIndexManager, **kwargs) -> "ServingState":
        """Live-updatable state around an existing index manager."""
        return cls(manager=manager, **kwargs)

    @classmethod
    def for_store(
        cls,
        store: DurableIndexStore,
        policy: CheckpointPolicy = CheckpointPolicy(),
        **kwargs,
    ) -> "ServingState":
        """Live-updatable state whose additions survive a crash.

        Each addition is WAL-logged by ``store`` before its epoch is
        published; the backend serving this state runs
        :attr:`seal_loop` (``policy`` over the store) from its start to
        its drain.  The coarse quantizer is the store's (``store.ann``:
        the one decoded from the checkpoint it opened; ``store.
        ann_missing`` reports when there is none — a pre-format-2 store
        serves by exact scan).  Seals retrain the on-disk quantizer but
        do not hot-swap the served one: documents added meanwhile are
        searched exactly via the fresh-tail rule, and a restart picks up
        the newest training.
        """
        kwargs.setdefault("ann", store.ann)
        state = cls(manager=store.manager, **kwargs)
        state.store = store
        state.seal_loop = SealLoop(store, policy)
        return state

    @classmethod
    def for_model(cls, model: LSIModel, **kwargs) -> "ServingState":
        """Read-only state around a fitted (e.g. loaded) model."""
        return cls(model=model, **kwargs)

    @classmethod
    def open(cls, path, *, query_cache_size: int = 256) -> "ServingState":
        """Read-only state over a served index — the one opener behind
        ``serve SOURCE.npz`` and every ``serve --tenant NAME=PATH``.

        A store directory opens through the store's one door
        (:func:`~repro.store.recovery.open_checkpoint`: the newest valid
        checkpoint, mapped, with the quantizer its writer trained).  A
        saved ``.npz`` database is a one-checkpoint index that carries
        no quantizer, so one is trained here, as a seal would have.
        """
        path = Path(path)
        if path.is_dir():
            opened = open_checkpoint(path)
            model, ann = opened.model(), opened.ann()
        else:
            model = load_model(path)
            ann = train_quantizer(model)
        return cls.for_model(model, ann=ann, query_cache_size=query_cache_size)

    @property
    def writable(self) -> bool:
        """Whether :meth:`add_texts` is available."""
        return self._manager is not None

    def current(self) -> EpochSnapshot:
        """The snapshot new work should run against (lock-free read)."""
        return self._snapshot

    def describe(self) -> dict:
        """The current epoch's status block (tenant registry, healthz)."""
        snapshot = self._snapshot
        return {
            "epoch": snapshot.epoch,
            "n_documents": snapshot.n_documents,
            "writable": self.writable,
        }

    # ------------------------------------------------------------------ #
    def add_texts(
        self, texts: Sequence[str], doc_ids: Sequence[str] | None = None
    ) -> dict:
        """Add documents through the manager and publish a new epoch.

        Blocking (runs the fold-in / consolidation); the service calls
        it from an executor thread.  In-flight readers keep scoring
        their pinned snapshot; the swap is one attribute write.  Over a
        store, the addition is WAL-fsynced before it is applied, so an
        acknowledged fold-in survives a crash.
        """
        if self._manager is None:
            raise ReproError(
                "server is read-only: serving a saved model, not a managed "
                "index; restart with a document source to enable /add"
            )
        with self._write_lock:
            if self.store is not None:
                event = self.store.add_texts(list(texts), doc_ids)
            else:
                event = self._manager.add_texts(list(texts), doc_ids)
            fresh = EpochSnapshot(
                self._snapshot.epoch + 1,
                self._manager.model,
                query_cache_size=self._query_cache_size,
                ann=self._snapshot.ann,
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


def train_quantizer(
    model: LSIModel, n_clusters: int | None = None, *, seed=0
) -> CoarseQuantizer:
    """A coarse quantizer over ``model``'s ``V_k Σ_k``, for a state no
    checkpoint hands one: a saved ``.npz`` (:meth:`ServingState.open`)
    or the index ``repro serve`` fits from a document source."""
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
