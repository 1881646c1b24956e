"""From-scratch numerical linear algebra for LSI.

The paper's computational core is the truncated SVD of a large sparse
term-document matrix, computed in 1995 by SVDPACKC's single-vector Lanczos
code.  This subpackage rebuilds that stack in pure NumPy:

* :mod:`repro.linalg.tridiag` — implicit-shift QL eigensolver for symmetric
  tridiagonal matrices (the inner solve of Lanczos: the whole eigenvector
  matrix, or its bottom row only for the convergence test).
* :mod:`repro.linalg.jacobi_svd` — one-sided Jacobi SVD for small dense
  matrices (the inner dense SVDs of the SVD-updating phases, Eq. 10-12).
* :mod:`repro.linalg.bidiag` — Golub-Kahan-Lanczos bidiagonalization.
* :mod:`repro.linalg.lanczos` — single-vector Lanczos on the Gram operator
  ``GᵀG`` with full reorthogonalization, instrumented so the paper's cost
  model ``I·cost(GᵀGx) + trp·cost(Gx)`` can be checked empirically.
* :mod:`repro.linalg.svd` — the :func:`truncated_svd` front-end that picks
  a backend and returns a :class:`~repro.linalg.svd.SVDResult`.
* :mod:`repro.linalg.orth` — orthogonality-loss diagnostics (§4.3).

Only ``numpy`` primitives (elementwise math, ``@`` on dense arrays) are
used; no LAPACK decompositions are called on any library code path.
"""

from repro.linalg.tridiag import tridiag_eigh
from repro.linalg.jacobi_svd import jacobi_svd
from repro.linalg.bidiag import golub_kahan_bidiag
from repro.linalg.lanczos import LanczosStats, lanczos_svd
from repro.linalg.svd import SVDResult, truncated_svd
from repro.linalg.orth import orthogonality_loss, reorthogonalize, spectral_norm
from repro.linalg.counters import FlopCounter, OperatorCounter

__all__ = [
    "tridiag_eigh",
    "jacobi_svd",
    "golub_kahan_bidiag",
    "lanczos_svd",
    "LanczosStats",
    "truncated_svd",
    "SVDResult",
    "orthogonality_loss",
    "reorthogonalize",
    "spectral_norm",
    "FlopCounter",
    "OperatorCounter",
]
