"""The scaled comparison space of a model: built once, owned by the model.

Every query against an :class:`~repro.core.model.LSIModel` is compared
with the rows of ``V_k Σ_k`` (§2.2) and needs their norms; the ranked
paths (:mod:`repro.serving.scan`) first read the same rows
unit-normalised in single precision.  All of it follows from the factors
alone, so :func:`scaled_rows` derives it in one place and
:func:`scaled_documents` keeps the whole-model result **on the model
instance**.

Cell layout
-----------
The single-precision rows are the only array a probe reads, so when the
rows are served with a coarse quantizer
(:class:`~repro.serving.ann.CoarseQuantizer`) they are held **cell by
cell**: ``unit[p]`` is row ``order[p]``, cell ``c`` occupies positions
``cell_indptr[c]:cell_indptr[c + 1]``, and rows the quantizer never saw
(the fresh tail) follow from ``cell_indptr[-1]`` in document order.  A
probe is then a few contiguous slices.  The layout replaces the
document-ordered rows — there is one single-precision array per served
range, never two — and the exact scan reads it through ``order``.  The
fp64 ``coords`` and ``norms`` stay in document order.

Lifetime rule
-------------
A model is immutable once built: folding-in, SVD-updating, the fast
update and ``truncated`` all return a *new* model, and
``dataclasses.replace`` carries dataclass fields only, so a successor
starts without the memo and derives its own.  The arrays are read-only
and die with their model; nothing outlives it, and the memo is
re-derived only when a snapshot asks for the cell layout of a quantizer
other than the one it was laid out by (the fp64 arrays are kept, the
single-precision rows replaced).  Nothing here is persisted either:
the single-precision rows are derived on load exactly as ``V_k Σ_k`` is.
Pinning an epoch is :class:`~repro.server.state.EpochSnapshot`'s job — it
holds the model, hence these arrays, for as long as a query needs them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.model import LSIModel
from repro.obs.metrics import registry
from repro.serving.kernel import row_norms

if TYPE_CHECKING:
    from repro.serving.ann import CoarseQuantizer

__all__ = ["ScaledRows", "scaled_rows", "scaled_documents"]

#: Rows normalised per step of the single-precision build: one gathered
#: fp64 block is the only temporary, so deriving the unit rows never
#: holds a second n × k double array.
_UNIT_BLOCK = 8192


class ScaledRows(NamedTuple):
    """Read-only scoring arrays of a contiguous run of document rows."""

    #: ``(n, k)`` fp64 rows of ``V_k Σ_k``, C-contiguous, in document order.
    coords: np.ndarray
    #: ``(n,)`` fp64 Euclidean norm of each row of ``coords``.
    norms: np.ndarray
    #: ``(n, k)`` single-precision ``coords / norms`` (zero rows stay zero):
    #: what the ranked scan streams — half the bytes of ``coords``.
    unit: np.ndarray
    #: Every norm is ``> 0`` (decided once, here, not per query).
    positive: bool
    #: ``(n,)`` row of ``coords`` held at each position of ``unit``;
    #: ``None`` when ``unit`` is in document order.
    order: np.ndarray | None
    #: ``(c + 1,)`` positions in ``unit`` where each coarse cell starts
    #: (the last entry: where the fresh tail starts); ``None`` without a
    #: cell layout.
    cell_indptr: np.ndarray | None


def scaled_rows(
    V: np.ndarray,
    s: np.ndarray,
    ann: CoarseQuantizer | None = None,
    *,
    lo: int = 0,
) -> ScaledRows:
    """Derive the scoring arrays of document rows ``V`` (whole or a range).

    The one derivation of everything a scorer reads: the whole-model memo
    and a range snapshot's slice both come from here, read-only.  ``V``
    holds global rows ``[lo, lo + len(V))``; with a quantizer the
    single-precision rows are laid out by its cells
    (:meth:`CoarseQuantizer.layout
    <repro.serving.ann.CoarseQuantizer.layout>`).
    """
    coords = np.ascontiguousarray(V * s)
    norms = row_norms(coords)  # its n × k temporary is gone on return
    positive = bool((norms > 0).all())
    for array in (coords, norms):
        array.flags.writeable = False
    return _laid_out(coords, norms, positive, ann, lo)


def _laid_out(
    coords: np.ndarray,
    norms: np.ndarray,
    positive: bool,
    ann: CoarseQuantizer | None,
    lo: int,
) -> ScaledRows:
    """Add the single-precision rows to fp64 rows ``[lo, lo + len)``,
    laid out by ``ann``'s cells (document order without one).

    ``coords / norms`` is rounded to single from the fp64 quotient, so
    each component carries one rounding of relative size ``2⁻²⁴`` — the
    input error :func:`repro.serving.scan.prefilter_margin` accounts for
    — whatever position its row lands at.
    """
    order = cell_indptr = None
    if ann is not None:
        order, cell_indptr = ann.layout(lo, lo + coords.shape[0])
    divisor = norms if positive else np.where(norms > 0, norms, 1.0)
    unit = np.empty(coords.shape, dtype=np.float32)
    for start in range(0, coords.shape[0], _UNIT_BLOCK):
        stop = start + _UNIT_BLOCK
        rows = slice(start, stop) if order is None else order[start:stop]
        # The fp64 quotient is rounded straight into the block: the only
        # temporary is the gathered block of a cell layout.
        np.divide(
            coords[rows], divisor[rows, None], out=unit[start:stop],
            casting="same_kind",
        )
    unit.flags.writeable = False
    return ScaledRows(coords, norms, unit, positive, order, cell_indptr)


def scaled_documents(
    model: LSIModel, ann: CoarseQuantizer | None = None
) -> ScaledRows:
    """The :class:`ScaledRows` of all of ``model``, derived on first use.

    The arrays are read-only and shared by every scorer of this model
    (the retrieval engine, whole-model epoch snapshots).  Without
    ``ann`` any layout serves (the exact scan reads every one); with it,
    the rows are laid out by ``ann``'s cells, re-deriving the
    single-precision rows of a memo laid out otherwise.
    """
    memo = getattr(model, "_scaled_documents", None)
    if memo is not None and (ann is None or memo[0] is ann):
        return memo[1]
    if memo is None:
        registry.inc("serving.index_builds")
        rows = scaled_rows(model.V, model.s, ann)
    else:
        old = memo[1]
        coords, norms, positive = old.coords, old.norms, old.positive
        # Let go of the old single-precision rows before deriving the new.
        model._scaled_documents = memo = old = None
        rows = _laid_out(coords, norms, positive, ann, 0)
    # An instance attribute, not a dataclass field: replace() drops it.
    model._scaled_documents = (ann, rows)
    return rows
