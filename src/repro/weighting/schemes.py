"""Weighting scheme composition and application (Eq. 5).

A :class:`WeightingScheme` names a (local, global) pair; applying it to a
raw-count matrix yields a :class:`WeightedMatrix` that remembers the global
weight vector — queries must be weighted with the *same* term weights the
documents received, and the weight-correction update (Eq. 12) needs the old
global weights to compute differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.text.vocabulary import Vocabulary
from repro.weighting.global_ import GLOBAL_WEIGHTS, global_weight
from repro.weighting.local import LOCAL_WEIGHTS, NEEDS_COL_MAX, local_weight

__all__ = [
    "WeightingScheme",
    "WeightedMatrix",
    "apply_weighting",
    "weight_counts",
]


@dataclass(frozen=True)
class WeightingScheme:
    """A named (local, global) weighting pair.

    ``WeightingScheme("log", "entropy")`` is the paper's recommended
    scheme; ``WeightingScheme("raw", "none")`` is the unweighted baseline
    used in the Table 3 example.
    """

    local: str = "raw"
    global_: str = "none"

    def __post_init__(self):
        if self.local not in LOCAL_WEIGHTS:
            raise ValueError(
                f"unknown local weight {self.local!r}; "
                f"choose from {sorted(LOCAL_WEIGHTS)}"
            )
        if self.global_ not in GLOBAL_WEIGHTS:
            raise ValueError(
                f"unknown global weight {self.global_!r}; "
                f"choose from {sorted(GLOBAL_WEIGHTS)}"
            )

    @property
    def name(self) -> str:
        """Display name, e.g. ``\"log×entropy\"``."""
        return f"{self.local}×{self.global_}"

    @classmethod
    def from_name(cls, name: str) -> "WeightingScheme":
        """Parse ``"log×entropy"`` / ``"log_entropy"`` style names."""
        for sep in ("×", "_", "-", "."):
            if sep in name:
                loc, glob = name.split(sep, 1)
                return cls(loc, glob)
        return cls(name, "none")


@dataclass
class WeightedMatrix:
    """A weighted term-document matrix plus the weights that produced it.

    Attributes
    ----------
    matrix:
        The weighted CSC matrix (``L(i,j) · G(i)`` on stored entries).
    scheme:
        The scheme applied.
    global_weights:
        Length-m vector ``G`` — reused to weight queries and folded-in
        documents consistently.
    """

    matrix: CSCMatrix
    scheme: WeightingScheme
    global_weights: np.ndarray


def _col_max_expanded(a: CSCMatrix) -> np.ndarray:
    """Per-entry maximum count of the entry's own document column."""
    n = a.shape[1]
    colmax = np.zeros(n)
    np.maximum.at(colmax, a.expanded_cols(), a.data)
    return colmax[a.expanded_cols()]


def apply_weighting(a: CSCMatrix, scheme: WeightingScheme) -> WeightedMatrix:
    """Apply ``scheme`` to raw counts, returning the weighted matrix."""
    g = global_weight(scheme.global_, a)
    if scheme.local in NEEDS_COL_MAX:
        local_data = local_weight(scheme.local, a.data, _col_max_expanded(a))
    else:
        local_data = local_weight(scheme.local, a.data)
    weighted = CSCMatrix(
        a.shape, a.indptr, a.indices, local_data * g[a.indices]
    )
    return WeightedMatrix(weighted, scheme, g)


def weight_counts(
    scheme: WeightingScheme, counts: np.ndarray, global_weights: np.ndarray
) -> np.ndarray:
    """``L(f) · G`` for the raw counts of new items — a query's nonzeros
    ``(nnz,)`` with ``G[ids]``, or new document columns ``(m, p)`` with
    ``G[:, None]``.

    New items are weighted like the training cells: the local transform
    reads each item's own counts (``augmented``'s maximum runs down axis
    0, one item per column), and ``G`` is the model's stored ``G(i)``,
    not recomputed — that drift is what the Eq. 12 correction repairs.
    Every local transform maps 0 → 0, so weighting the nonzeros alone
    equals weighting the dense vector there.
    """
    if scheme.local in NEEDS_COL_MAX:
        cmax = counts.max(axis=0, keepdims=True, initial=1.0)
        local = local_weight(
            scheme.local, counts, np.broadcast_to(cmax, counts.shape)
        )
    else:
        local = local_weight(scheme.local, counts)
    return local * global_weights
