"""Probe-bounded approximate scan — the serving answer to §5.6.

The paper's third open computational issue is "efficiently comparing
queries to documents (i.e., finding near neighbors in high-dimension
spaces)".  This module answers it with an IVF-style design, shaped so
the durable store can persist it and every query path can map it
zero-copy (queries reach it through
:meth:`repro.serving.snapshot.EpochSnapshot.search`):

1. **Train** (checkpoint time): k-means++-seeded Lloyd over the
   unit-normalized ``V_k Σ_k`` rows, formed from ``V`` and ``Σ`` in row
   blocks — sampled above a size cap so the quantizer stays cheap to
   refresh on every checkpoint (the Vecharynski & Saad fast-update
   requirement) — then one full assignment pass to build per-cell
   posting lists in CSR form, each list ascending.
2. **Lay out** (load time): the posting lists are a stable cell-grouped
   permutation, so the single-precision unit rows a scorer derives on
   open are held in that order (:meth:`CoarseQuantizer.layout`; rows
   folded in after training — the *fresh tail*, which the posting lists
   cannot know about — follow in document order).  A shard's range
   keeps the grouping with the other ranges' rows taken out.
3. **Probe** (query time): rank cells by centroid cosine against the
   Σ-scaled query, then run the exact scan's algorithm over the
   ``probes`` nearest cells plus the tail: one fp32 GEMV per contiguous
   slice, the :func:`~repro.serving.scan.prefilter_margin` cut, and
   fp64 rescoring of the survivors alone with the row-local
   :func:`~repro.serving.kernel.row_cosines` kernel
   (:func:`~repro.serving.scan.cut_and_rescore`, shared with the exact
   scan).

Survivors are rescored in ascending document order and the margin
provably keeps every row of the answer, so the ranking is
*element-identical* (indices, scores, tie order) to scoring every
candidate — and to the exhaustive :func:`~repro.serving.scan.ranked_scan`
ranking whenever ``probes >= n_clusters``.  ``probes`` is therefore a
pure recall/speed dial with an exact top end, measured in
``benchmarks/bench_ann_serving``.

The three arrays (``ann_centroids``, ``ann_indptr``, ``ann_docs``)
persist as ordinary checkpoint ``.npy`` files (format v2) and reopen via
``np.load(mmap_mode="r")`` — see
:meth:`repro.store.recovery.OpenedCheckpoint.ann`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.obs.metrics import registry
from repro.serving.index import ScaledRows
from repro.serving.kernel import ROW_BLOCK, row_norms, scaled_blocks
from repro.serving.scan import bounded, cut_and_rescore, unit_queries

__all__ = [
    "ANN_ARRAY_NAMES",
    "CoarseQuantizer",
    "default_n_clusters",
    "kmeans",
]

#: Checkpoint array names the quantizer (de)serializes to (format v2).
ANN_ARRAY_NAMES = ("ann_centroids", "ann_indptr", "ann_docs")

_CELL_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
_FRACTION_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


def default_n_clusters(n: int) -> int:
    """``≈ sqrt(n)`` — the standard IVF probe-vs-scan balance point."""
    return max(1, int(np.sqrt(n)))


def _assign(
    X: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment plus per-point squared distance.

    Block-row evaluation of the same expanded-form expression the
    original single-shot implementation used; each row's arithmetic is
    unchanged, only the GEMM is tiled, in :data:`ROW_BLOCK` rows.
    """
    n = X.shape[0]
    cen_sq = np.sum(centroids**2, axis=1)[None, :]
    assignment = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(n, lo + ROW_BLOCK)
        sq = (
            np.sum(X[lo:hi] ** 2, axis=1)[:, None]
            - 2.0 * X[lo:hi] @ centroids.T
            + cen_sq
        )
        assignment[lo:hi] = np.argmin(sq, axis=1)
        best[lo:hi] = np.min(sq, axis=1)
    return assignment, best


def kmeans(
    points: np.ndarray,
    n_clusters: int,
    *,
    max_iter: int = 50,
    tol: float = 1e-6,
    seed=0,
) -> tuple[np.ndarray, np.ndarray]:
    """Plain Lloyd k-means with k-means++ seeding.

    Returns ``(centroids (c, d), assignment (n,))``.  Empty clusters are
    re-seeded from the point farthest from its centroid.  Assignment
    passes run in row blocks, so memory stays O(ROW_BLOCK · c) at any
    collection size.
    """
    from repro.util.rng import ensure_rng  # training only: readers never seed

    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("points must be 2-D")
    n, d = X.shape
    if not 1 <= n_clusters <= n:
        raise ShapeError(f"n_clusters={n_clusters} outside [1, {n}]")
    rng = ensure_rng(seed)

    # k-means++ initialization.
    centroids = np.empty((n_clusters, d))
    centroids[0] = X[int(rng.integers(n))]
    closest_sq = np.sum((X - centroids[0]) ** 2, axis=1)
    for c in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0:
            centroids[c:] = X[rng.integers(n, size=n_clusters - c)]
            break
        probs = closest_sq / total
        centroids[c] = X[int(rng.choice(n, p=probs))]
        closest_sq = np.minimum(
            closest_sq, np.sum((X - centroids[c]) ** 2, axis=1)
        )

    assignment = np.zeros(n, dtype=np.int64)
    for _it in range(max_iter):
        assignment, best = _assign(X, centroids)
        moved = 0.0
        for c in range(n_clusters):
            members = X[assignment == c]
            if members.shape[0] == 0:
                # Re-seed from the globally worst-served point.
                worst = int(np.argmax(best))
                new_centroid = X[worst]
            else:
                new_centroid = members.mean(axis=0)
            moved = max(
                moved, float(np.sum((centroids[c] - new_centroid) ** 2))
            )
            centroids[c] = new_centroid
        if moved <= tol:
            break
    assignment, _ = _assign(X, centroids)
    return centroids, assignment


def _unit_rows(V: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows of ``V Σ`` projected onto the unit sphere, formed one row
    block at a time; zero rows stay zero."""
    unit = np.empty(V.shape)
    for at, _, block in scaled_blocks(V, s):
        norms = row_norms(block)[:, None]
        unit[at] = np.where(norms > 0, block / np.where(norms > 0, norms, 1), 0)
    return unit


class CoarseQuantizer:
    """Checkpoint-persistable coarse quantizer with probe-bounded rerank.

    Model-free on purpose: it holds centroids plus CSR posting lists of
    document *indices*, and scores the scoring rows the caller laid out
    by its cells (:meth:`layout`) — all of ``V_k Σ_k`` on a single node,
    or a shard's ``[lo, hi)`` range in a cluster worker.  All arrays may
    be read-only memory maps.
    """

    __slots__ = ("centroids", "cell_indptr", "cell_docs", "seed", "_cen_norms")

    def __init__(
        self,
        centroids: np.ndarray,
        cell_indptr: np.ndarray,
        cell_docs: np.ndarray,
        *,
        seed=0,
    ) -> None:
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.cell_indptr = np.asarray(cell_indptr, dtype=np.int64)
        self.cell_docs = np.asarray(cell_docs, dtype=np.int64)
        if self.centroids.ndim != 2 or self.centroids.shape[0] < 1:
            raise ShapeError("centroids must be a non-empty 2-D array")
        c = self.centroids.shape[0]
        if self.cell_indptr.shape != (c + 1,):
            raise ShapeError(
                f"cell_indptr has shape {self.cell_indptr.shape} for "
                f"{c} cells (want ({c + 1},))"
            )
        if (
            self.cell_indptr[0] != 0
            or self.cell_indptr[-1] != self.cell_docs.shape[0]
            or np.any(np.diff(self.cell_indptr) < 0)
        ):
            raise ShapeError("cell_indptr is not a valid CSR pointer array")
        self.seed = seed
        self._cen_norms = np.sqrt(np.sum(self.centroids**2, axis=1))

    # ------------------------------------------------------------------ #
    # construction / serialization
    # ------------------------------------------------------------------ #
    @classmethod
    def train(
        cls,
        V: np.ndarray,
        s: np.ndarray,
        n_clusters: int | None = None,
        *,
        seed=0,
        max_iter: int = 50,
        sample: int | None = None,
    ) -> "CoarseQuantizer":
        """Train over the document rows of ``V_k Σ_k``, given as ``V``
        (the model's own, or a mapped one) and ``Σ``.

        Cosine search ⇒ clustering happens on the unit sphere; the unit
        rows, formed block by block, are the only ``n × k`` array
        training holds.  Above ``sample`` points (default
        ``max(10_000, 64·c)``) Lloyd runs on a seeded uniform sample and
        only the final assignment pass sees every row — keeping
        checkpoint-time retraining roughly constant in collection size.
        Deterministic given ``(V, s, seed)``.
        """
        V = np.asarray(V, dtype=np.float64)
        if V.ndim != 2 or V.shape[0] == 0:
            raise ShapeError("V must be a non-empty 2-D array")
        n = V.shape[0]
        if n_clusters is None:
            n_clusters = default_n_clusters(n)
        n_clusters = max(1, min(int(n_clusters), n))
        unit = _unit_rows(V, np.asarray(s, dtype=np.float64))
        if sample is None:
            sample = max(10_000, 64 * n_clusters)
        if n > sample:
            from repro.util.rng import ensure_rng

            rng = ensure_rng(seed)
            pick = np.sort(rng.choice(n, size=sample, replace=False))
            centroids, _ = kmeans(
                unit[pick], n_clusters, max_iter=max_iter, seed=seed
            )
            assignment, _ = _assign(unit, centroids)
        else:
            centroids, assignment = kmeans(
                unit, n_clusters, max_iter=max_iter, seed=seed
            )
        counts = np.bincount(assignment, minlength=n_clusters)
        indptr = np.zeros(n_clusters + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Stable sort groups by cell, ascending document index within
        # each cell: the order scoring rows are held in (``layout``).
        order = np.argsort(assignment, kind="stable").astype(np.int64)
        return cls(centroids, indptr, order, seed=seed)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint arrays (names in :data:`ANN_ARRAY_NAMES`)."""
        return {
            "ann_centroids": self.centroids,
            "ann_indptr": self.cell_indptr,
            "ann_docs": self.cell_docs,
        }

    @classmethod
    def from_arrays(
        cls, arrays: dict[str, np.ndarray], *, seed=0
    ) -> "CoarseQuantizer":
        """Inverse of :meth:`to_arrays`; arrays may be memory-mapped."""
        return cls(
            arrays["ann_centroids"],
            arrays["ann_indptr"],
            arrays["ann_docs"],
            seed=seed,
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        """Number of coarse cells."""
        return self.centroids.shape[0]

    @property
    def n_documents(self) -> int:
        """Documents the posting lists cover (rows seen at train time)."""
        return self.cell_docs.shape[0]

    def cell(self, c: int) -> np.ndarray:
        """Ascending document indices of cell ``c``."""
        return self.cell_docs[self.cell_indptr[c]:self.cell_indptr[c + 1]]

    # ------------------------------------------------------------------ #
    # query path
    # ------------------------------------------------------------------ #
    def probe_cells(self, q_scaled: np.ndarray, probes: int) -> np.ndarray:
        """Ids of the ``probes`` nearest cells by centroid cosine.

        ``q_scaled`` is the Σ-scaled query (the same vector the exact
        kernel scores with), so cell selection is a pure function of the
        serving inputs — bit-identical on every node that holds the same
        quantizer.  ``probes`` clamps to ``[1, n_clusters]``.  A
        zero-norm query has no direction to probe along, so it probes
        *every* cell — degrading to the exact scan's all-zero ranking
        rather than an arbitrary subset.
        """
        q = np.asarray(q_scaled, dtype=np.float64).ravel()
        if q.size != self.centroids.shape[1]:
            raise ShapeError(
                f"query has {q.size} dims for centroid width "
                f"{self.centroids.shape[1]}"
            )
        probes = max(1, min(int(probes), self.n_clusters))
        qn = np.sqrt(np.dot(q, q))
        if qn == 0.0:
            return np.arange(self.n_clusters, dtype=np.int64)
        raw = self.centroids @ q
        cos = np.full(self.n_clusters, -np.inf)
        ok = self._cen_norms > 0
        cos[ok] = raw[ok] / (self._cen_norms[ok] * qn)
        return np.argsort(-cos, kind="stable")[:probes].astype(np.int64)

    def candidates(
        self,
        cells: np.ndarray,
        *,
        n_total: int | None = None,
        lo: int = 0,
        hi: int | None = None,
    ) -> np.ndarray:
        """Ascending candidate document indices for the probed ``cells``.

        Rows ``>= n_documents`` (folded in after training — the *fresh
        tail*) are always candidates, so new documents are searched
        exactly until the next checkpoint retrain.  ``lo``/``hi``
        restrict the set to a shard's ``[lo, hi)`` row range.
        """
        parts = [self.cell(int(c)) for c in cells]
        cand = (
            np.sort(np.concatenate(parts))
            if parts
            else np.empty(0, dtype=np.int64)
        )
        covered = self.n_documents
        if n_total is not None and n_total > covered:
            cand = np.concatenate(
                [cand, np.arange(covered, n_total, dtype=np.int64)]
            )
        if lo > 0 or hi is not None:
            stop = cand.size if hi is None else np.searchsorted(cand, hi, "left")
            start = np.searchsorted(cand, lo, "left")
            cand = cand[start:stop]
        return cand

    def layout(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The cell-by-cell order rows ``[lo, hi)`` are held in.

        Returns ``(order, cell_indptr)``, both local to the range:
        position ``p`` holds row ``lo + order[p]``, cell ``c`` the
        positions ``cell_indptr[c]:cell_indptr[c + 1]``, and the rows
        the posting lists do not cover (the fresh tail) follow in
        document order.  Restricting the stable cell-grouped posting
        lists to a range keeps them grouped, so every shard's layout is
        the whole-model one with the other ranges' rows taken out.
        """
        docs = self.cell_docs
        inside = (docs >= lo) & (docs < hi)
        before = np.zeros(docs.size + 1, dtype=np.int64)
        np.cumsum(inside, out=before[1:])
        order = np.concatenate(
            [docs[inside], np.arange(max(lo, self.n_documents), hi)]
        )
        order -= lo
        cell_indptr = before[self.cell_indptr]
        for array in (order, cell_indptr):
            array.flags.writeable = False
        return order, cell_indptr

    def select(
        self,
        scaled: ScaledRows,
        q_scaled: np.ndarray,
        *,
        probes: int,
        top: int | None = None,
        threshold: float | None = None,
        offset: int = 0,
    ) -> tuple[list[tuple[int, float]], dict]:
        """Ranked ``(offset + row, score)`` pairs over the probed cells.

        ``scaled`` holds rows ``[offset, offset + len)`` laid out by this
        quantizer's cells (:meth:`layout`) — the whole model on a single
        node, or a shard's range in a worker.  The probe reads the
        single-precision rows of the ``probes`` nearest cells plus the
        fresh tail, one contiguous slice each, then ends as the exact
        scan does (:func:`~repro.serving.scan.cut_and_rescore`): only
        rows within the prefilter margin of the cut get an fp64 score,
        from the row-local kernel, so a row's score is the same bits
        here, in the exhaustive scan and in any shard.
        """
        if scaled.cell_indptr is None or scaled.cell_indptr.size != (
            self.n_clusters + 1
        ):
            raise ShapeError("rows are not laid out by this quantizer's cells")
        q = np.asarray(q_scaled, dtype=np.float64).ravel()
        cells = self.probe_cells(q, probes)
        indptr = scaled.cell_indptr
        bounds = [(indptr[c], indptr[c + 1]) for c in cells]
        bounds.append((indptr[-1], scaled.unit.shape[0]))
        positions = np.concatenate([np.arange(a, b) for a, b in bounds])
        stats = {
            "cells_probed": int(cells.size),
            "candidates": int(positions.size),
        }
        self._record(stats, scaled.unit.shape[0])
        approx = None
        if bounded(top, threshold, positions.size):
            unit_q = unit_queries(q[None, :])[0]
            approx = np.concatenate(
                [scaled.unit[a:b] @ unit_q for a, b in bounds]
            )[:, None]
        pairs = cut_and_rescore(
            scaled, q[None, :], [top], [threshold], approx,
            positions=positions, offset=offset,
        )[0]
        return pairs, stats

    def _record(self, stats: dict, n_rows: int) -> None:
        registry.inc("ann.requests_total")
        registry.observe(
            "ann.cells_probed",
            float(stats["cells_probed"]),
            boundaries=_CELL_BUCKETS,
        )
        if n_rows > 0:
            registry.observe(
                "ann.candidate_fraction",
                stats["candidates"] / n_rows,
                boundaries=_FRACTION_BUCKETS,
            )
