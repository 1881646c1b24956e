"""The scaled comparison space of a model: built once, owned by the model.

Every query against an :class:`~repro.core.model.LSIModel` is compared
with the rows of ``V_k Σ_k`` (§2.2) and needs their norms; the ranked
paths (:mod:`repro.serving.scan`) first read the same rows
unit-normalised in single precision.  All of it follows from the factors
alone, so :func:`scaled_rows` derives it in one place and
:func:`scaled_documents` keeps the whole-model result **on the model
instance**.

Lifetime rule
-------------
A model is immutable once built: folding-in, SVD-updating, the fast
update and ``truncated`` all return a *new* model, and
``dataclasses.replace`` carries dataclass fields only, so a successor
starts without the memo and derives its own.  The arrays are read-only
and die with their model; nothing outlives it, nothing is keyed on it,
and there is nothing to invalidate.  Nothing here is persisted either:
the single-precision rows are derived on load exactly as ``V_k Σ_k`` is.
Pinning an epoch is :class:`~repro.server.state.EpochSnapshot`'s job — it
holds the model, hence these arrays, for as long as a query needs them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.model import LSIModel
from repro.obs.metrics import registry
from repro.serving.kernel import row_norms

__all__ = ["ScaledRows", "scaled_rows", "scaled_documents"]

#: Rows normalised per step of the single-precision build: the fp64
#: quotient of one block is the only temporary, so deriving the unit rows
#: never holds a second n × k double array.
_UNIT_BLOCK = 8192


class ScaledRows(NamedTuple):
    """Read-only scoring arrays of a contiguous run of document rows."""

    #: ``(n, k)`` fp64 rows of ``V_k Σ_k``, C-contiguous.
    coords: np.ndarray
    #: ``(n,)`` fp64 Euclidean norm of each row.
    norms: np.ndarray
    #: ``(n, k)`` single-precision ``coords / norms`` (zero rows stay zero):
    #: what the ranked scan streams — half the bytes of ``coords``.
    unit: np.ndarray
    #: Every norm is ``> 0`` (decided once, here, not per query).
    positive: bool


def scaled_rows(V: np.ndarray, s: np.ndarray) -> ScaledRows:
    """Derive the scoring arrays of document rows ``V`` (whole or a range).

    The one derivation of everything a scorer reads: the whole-model memo
    and a range snapshot's slice both come from here, read-only.  The
    unit rows are rounded to single precision from the fp64 quotient, so
    each component carries one rounding of relative size ``2⁻²⁴`` — the
    input error :func:`repro.serving.scan.prefilter_margin` accounts for.
    """
    coords = np.ascontiguousarray(V * s)
    norms = row_norms(coords)  # its n × k temporary is gone on return
    positive = bool((norms > 0).all())
    divisor = norms if positive else np.where(norms > 0, norms, 1.0)
    unit = np.empty(coords.shape, dtype=np.float32)
    for lo in range(0, coords.shape[0], _UNIT_BLOCK):
        hi = lo + _UNIT_BLOCK
        unit[lo:hi] = coords[lo:hi] / divisor[lo:hi, None]
    for array in (coords, norms, unit):
        array.flags.writeable = False
    return ScaledRows(coords, norms, unit, positive)


def scaled_documents(model: LSIModel) -> ScaledRows:
    """The :class:`ScaledRows` of all of ``model``, derived on first use.

    The arrays are read-only and shared by every scorer of this model
    (the retrieval engine, whole-model epoch snapshots).
    """
    memo = getattr(model, "_scaled_documents", None)
    if memo is None:
        registry.inc("serving.index_builds")
        # An instance attribute, not a dataclass field: replace() drops it.
        memo = model._scaled_documents = scaled_rows(model.V, model.s)
    return memo
