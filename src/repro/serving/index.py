"""The scaled comparison space of a model: derived once, owned by the model.

Documents are compared as rows of ``V_k Σ_k`` (§2.2), terms as rows of
``U_k Σ_k`` (§5.4); a score needs the rows' norms, and the ranked paths
(:mod:`repro.serving.scan`) first read the rows unit-normalised in
single precision.  All of it follows from the factors alone, so
:func:`scaled_rows` derives either side in one place, and
:func:`scaled_documents` / :func:`scaled_terms` keep a whole side
**on the model instance**.

What is held
------------
Per side, the model's own factor (``V``, a shard worker's mapped
``V[lo:hi]`` view, or ``U``) and ``Σ``, the fp64 norms (``8·n`` bytes)
and the fp32 unit rows (``4·n·k``) — no fp64 copy of the product.  Rows
of it are formed where they are used, as ``V[rows] * s`` in cache-sized
row blocks (:func:`~repro.serving.kernel.scaled_blocks`, ``ROW_BLOCK``
rows): the same bits as the whole product.  Deriving the arrays holds a
block or two beside them (1.1 MB on 20 000 × 64, where the held arrays
are 5.3 MB), so a reader's peak RSS is what it keeps.  Only the
library's term scores derive the term side; no serving process does.

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
range, never two — and the exact scan reads it through ``order``.
``V`` and the norms stay in document order.

Lifetime rule
-------------
A model is immutable once built: folding-in, SVD-updating, the fast
update and ``truncated`` all return a *new* model, and
``dataclasses.replace`` carries dataclass fields only, so a successor
starts without either side's memo and derives its own.  The arrays are
read-only and die with their model; nothing outlives it, and the memo
is re-derived only when a snapshot asks for the cell layout of a
quantizer other than the one it was laid out by.  Nothing here is
persisted either: both sides are derived on first use after a load.
Pinning an epoch is :class:`~repro.serving.snapshot.EpochSnapshot`'s job — it
holds the model, hence these arrays, for as long as a query needs them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.core.model import LSIModel
from repro.obs.metrics import registry
from repro.serving.kernel import row_norms, scaled_blocks

if TYPE_CHECKING:
    from repro.serving.ann import CoarseQuantizer

__all__ = ["ScaledRows", "scaled_rows", "scaled_documents", "scaled_terms"]


class ScaledRows(NamedTuple):
    """Read-only scoring arrays of a contiguous run of rows of one side."""

    #: ``(n, k)`` rows of the model's ``V`` — or ``U``, on the term side
    #: — not a copy, in row order.
    V: np.ndarray
    #: ``(k,)`` the model's ``Σ``: row ``i`` of ``V_k Σ_k`` is ``V[i] * s``.
    s: np.ndarray
    #: ``(n,)`` fp64 Euclidean norm of each row of ``V * s``.
    norms: np.ndarray
    #: ``(n, k)`` single-precision ``V * s / norms`` (zero rows stay
    #: zero): what the ranked scan streams — half the bytes of ``V``.
    unit: np.ndarray
    #: Every norm is ``> 0`` (decided once, here, not per query).
    positive: bool
    #: ``(n,)`` row of ``V`` held at each position of ``unit``;
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
    """Derive the scoring arrays of factor rows ``V`` (whole or a range).

    The one derivation of everything a scorer reads: both sides' memos
    and a range snapshot's slice all come from here, read-only.  ``V``
    holds global rows ``[lo, lo + len(V))`` and is held, not copied;
    with a quantizer the single-precision rows are laid out by its cells
    (:meth:`CoarseQuantizer.layout
    <repro.serving.ann.CoarseQuantizer.layout>`).  ``V * s / norms`` is
    rounded to single from the fp64 quotient, so each component carries
    one rounding of relative size ``2⁻²⁴`` — the input error
    :func:`repro.serving.scan.prefilter_margin` accounts for — whatever
    position its row lands at.
    """
    norms = np.empty(V.shape[0])
    for at, _, block in scaled_blocks(V, s):
        norms[at] = row_norms(block)
    positive = bool((norms > 0).all())
    order = cell_indptr = None
    if ann is not None:
        order, cell_indptr = ann.layout(lo, lo + V.shape[0])
    divisor = norms if positive else np.where(norms > 0, norms, 1.0)
    unit = np.empty(V.shape, dtype=np.float32)
    for at, idx, block in scaled_blocks(V, s, order):
        np.divide(
            block, divisor[idx, None], out=unit[at], casting="same_kind"
        )
    for array in (norms, unit):
        array.flags.writeable = False
    return ScaledRows(V, s, norms, unit, positive, order, cell_indptr)


def scaled_documents(
    model: LSIModel, ann: CoarseQuantizer | None = None
) -> ScaledRows:
    """The :class:`ScaledRows` of ``model``'s documents, derived on first use.

    The arrays are read-only and shared by every scorer of this model
    (the retrieval engine, whole-model epoch snapshots).  Without
    ``ann`` any layout serves (the exact scan reads every one); with it,
    the rows are laid out by ``ann``'s cells, re-deriving a memo laid
    out otherwise.
    """
    return _memo(model, "V", ann)


def scaled_terms(model: LSIModel) -> ScaledRows:
    """The :class:`ScaledRows` of ``model``'s terms, derived on first use."""
    return _memo(model, "U")


def _memo(
    model: LSIModel, side: str, ann: CoarseQuantizer | None = None
) -> ScaledRows:
    """The memo of one side (``"V"`` or ``"U"``) of ``model``."""
    attr = "_scaled_documents" if side == "V" else "_scaled_terms"
    memo = getattr(model, attr, None)
    if memo is not None and (ann is None or memo[0] is ann):
        return memo[1]
    if memo is None:
        registry.inc("serving.index_builds")
    # Let go of rows laid out otherwise before deriving the new.
    memo = None
    setattr(model, attr, None)
    rows = scaled_rows(getattr(model, side), model.s, ann)
    # An instance attribute, not a dataclass field: replace() drops it.
    setattr(model, attr, (ann, rows))
    return rows
