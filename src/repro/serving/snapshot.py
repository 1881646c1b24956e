"""One pinned epoch of scoring state, the window it is held in, and the
one well-formed search.

:class:`EpochSnapshot` pins everything one batch of queries needs — the
model, the precomputed norms and unit rows of a row range (the whole
model in a single-node server; one shard's rows in a cluster worker) —
into one immutable object, and its :meth:`~EpochSnapshot.search` is the
one scoring entry point of every serving tier.  :class:`EpochWindow`
holds a reader's served epoch and at most one newer one.
:func:`check_search_args` is the one definition of a well-formed search
request, shared by the HTTP front end, the in-process scheduler, the
``query`` / ``terms`` commands and the shard worker.

A reader module: a shard worker imports it and nothing of the
in-process scheduler (:mod:`repro.server.state`), its admission queue
or its event loop.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

import numpy as np

from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.errors import ReproError, ShapeError
from repro.obs.metrics import registry
from repro.serving.ann import CoarseQuantizer
from repro.serving.index import scaled_documents, scaled_rows
from repro.serving.scan import all_cosines, ranked_scan

if TYPE_CHECKING:  # a fleet's epochs carry one; a reader loads no fleet code
    from repro.cluster.plan import ShardPlan

__all__ = ["EpochSnapshot", "EpochWindow", "check_search_args"]


def check_search_args(
    query="", top=None, threshold=None, timeout_ms=None, probes=None, exact=False
) -> None:
    """Raise :class:`ReproError` naming the first malformed search field.

    The one definition of a well-formed search: the HTTP front end calls
    it before any service sees the request (→ 400), the scorer calls it
    per request so an in-process caller's bad argument fails that
    request alone, never the batch it was coalesced into, and a shard
    worker calls it per score frame (which carries projected vectors,
    not text, so it passes no ``query``).
    """
    if probes is not None and (
        isinstance(probes, bool)
        or not isinstance(probes, numbers.Integral)
        or probes < 1
    ):
        raise ReproError("'probes' must be a positive integer")
    if not isinstance(exact, bool):
        raise ReproError("'exact' must be a boolean")
    if not isinstance(query, str) and not (
        isinstance(query, (list, tuple))
        and all(isinstance(token, str) for token in query)
    ):
        raise ReproError("'query' must be a string or a list of strings")
    if top is not None and (
        isinstance(top, bool) or not isinstance(top, numbers.Integral) or top < 0
    ):
        raise ReproError("'top' must be a non-negative integer")
    if threshold is not None and (
        isinstance(threshold, bool)
        or not isinstance(threshold, numbers.Real)
        or not math.isfinite(threshold)
    ):
        raise ReproError("'threshold' must be a finite number")
    if timeout_ms is not None and (
        isinstance(timeout_ms, bool)
        or not isinstance(timeout_ms, numbers.Real)
        or not timeout_ms > 0
    ):
        raise ReproError("'timeout_ms' must be a positive number")


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
    exactly the state it was computed on.  ``checkpoint`` names its seal
    (``""`` in memory); ``plan`` is a fleet's shard plan for it.  A
    fleet's front end holds one over no rows (``lo = hi = 0``).
    """

    __slots__ = (
        "epoch", "model", "lo", "hi", "scaled", "ann", "checkpoint", "plan",
    )

    def __init__(
        self,
        epoch: int,
        model: LSIModel,
        *,
        lo: int = 0,
        hi: int | None = None,
        # Accepted and ignored: ledger/checks.py still passes it; ROADMAP
        # 1(v) drops it there, and then this keyword goes.
        query_cache_size: int | None = None,
        ann: CoarseQuantizer | None = None,
        checkpoint: str = "",
        plan: ShardPlan | None = None,
    ):
        self.epoch = int(epoch)
        self.model = model
        self.checkpoint = checkpoint
        self.plan = plan
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
        """Eq. 6 for one query (text or token sequence)."""
        return project_query(self.model, query)

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
        rankings are held to — same indices, scores within 1e-12."""
        return all_cosines(self.scaled, self.scale(Q))

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


class EpochWindow:
    """The epochs one reader answers: a served one and at most one newer.

    The retention rule of every reader that outlives a bump.  A fleet
    :meth:`offer` s a sealed epoch (taken only if newer than both held
    ones, so it replaces one not yet published) and :meth:`publish` es
    it on quorum.  A shard worker publishes through the served epoch a
    bump frame names, then offers the bumped one: however many seals
    pass before a quorum, the epoch the front end scatters stays held.
    Epochs never move backwards.  Both live in one tuple, replaced by
    one reference write, so a reader on another thread never sees half
    a move.
    """

    __slots__ = ("_held",)

    def __init__(self, served):
        self._held = (served, None)

    @property
    def served(self):
        """The epoch requests are answered from."""
        return self._held[0]

    @property
    def next(self):
        """The newer epoch waiting to be published, or ``None``."""
        return self._held[1]

    @property
    def newest(self):
        """:attr:`next` when there is one, else :attr:`served`."""
        served, later = self._held
        return served if later is None else later

    def offer(self, value) -> None:
        """Hold ``value`` as next if it is newer than both held epochs."""
        if value.epoch > self.newest.epoch:
            self._held = (self._held[0], value)

    def publish(self, through: int | None = None) -> None:
        """Promote the next epoch to served — if it is at most
        ``through``, when that is given."""
        later = self._held[1]
        if later is not None and (through is None or later.epoch <= through):
            self._held = (later, None)

    def get(self, epoch: int):
        """The held value of ``epoch``, or ``None``."""
        for value in self._held:
            if value is not None and value.epoch == epoch:
                return value
        return None
