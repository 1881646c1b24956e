"""Operation counting for the paper's cost model.

Section 4 of the paper expresses the cost of a sparse truncated SVD as::

    I × cost(GᵀG x) + trp × cost(G x)

where ``I`` is the Lanczos iteration count and ``trp`` the number of
accepted singular triplets.  :class:`OperatorCounter` wraps any matrix-like
object and counts exactly those two quantities (plus flops, at 2·nnz per
sparse matvec), letting the Table 7 complexity formulas be validated
against measured counts rather than trusted on paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FlopCounter", "OperatorCounter"]


@dataclass
class FlopCounter:
    """Accumulates floating-point-operation estimates by category."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, flops: int) -> None:
        """Accumulate ``flops`` under ``category``."""
        self.counts[category] = self.counts.get(category, 0) + int(flops)

    @property
    def total(self) -> int:
        """Sum over all categories."""
        return sum(self.counts.values())


class OperatorCounter:
    """Matrix wrapper that counts matvec / rmatvec invocations and flops.

    Works with the sparse formats (which expose ``nnz``) and with dense
    ndarrays (flops = 2·m·n per product).  The wrapped object is exposed
    through the same ``matvec``/``rmatvec``/``shape`` interface the Lanczos
    code consumes, so counting is transparent to the algorithm.
    """

    def __init__(self, a, flops: FlopCounter | None = None):
        self._a = a
        self.shape = tuple(a.shape)
        self.matvecs = 0
        self.rmatvecs = 0
        self.flops = flops if flops is not None else FlopCounter()
        if hasattr(a, "nnz"):
            self._cost = 2 * int(a.nnz)
        else:
            self._cost = 2 * self.shape[0] * self.shape[1]

    @property
    def gram_products(self) -> int:
        """Number of full ``GᵀG x`` applications (the paper's ``I``)."""
        return min(self.matvecs, self.rmatvecs)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Counted ``A @ x``."""
        self.matvecs += 1
        self.flops.add("matvec", self._cost)
        if hasattr(self._a, "matvec"):
            return self._a.matvec(x)
        return self._a @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Counted ``Aᵀ @ y``."""
        self.rmatvecs += 1
        self.flops.add("rmatvec", self._cost)
        if hasattr(self._a, "rmatvec"):
            return self._a.rmatvec(y)
        return self._a.T @ y

    def reset(self) -> None:
        """Zero all counters."""
        self.matvecs = 0
        self.rmatvecs = 0
        self.flops = FlopCounter()
