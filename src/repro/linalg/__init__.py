"""Numerical linear algebra for LSI.

The paper's computational core is the truncated SVD of a large sparse
term-document matrix, computed in 1995 by SVDPACKC's single-vector Lanczos
code.  This subpackage rebuilds the sparse side of that stack in NumPy and
hands each small dense problem to LAPACK, as SVDPACKC hands its
tridiagonal one to EISPACK:

* :mod:`repro.linalg.lanczos` — single-vector Lanczos on the Gram operator
  ``GᵀG`` with full reorthogonalization, instrumented so the paper's cost
  model ``I·cost(GᵀGx) + trp·cost(Gx)`` can be checked empirically.
* :mod:`repro.linalg.tridiag` — the symmetric tridiagonal eigensolve of a
  Lanczos convergence check (``numpy.linalg.eigh``).
* :mod:`repro.linalg.svd` — :func:`dense_svd`, the one small-dense SVD
  (``numpy.linalg.svd``: the cores of the SVD-updating phases, Eq. 10-12),
  and the :func:`truncated_svd` front-end that picks a backend and returns
  a :class:`~repro.linalg.svd.SVDResult`.
* :mod:`repro.linalg.orth` — orthogonality-loss diagnostics (§4.3).

The Krylov method, its reorthogonalization and the sparse products
it drives are written here; LAPACK sees only matrices of the order of
the Krylov basis or of the update core.
"""

from repro.linalg.tridiag import tridiag_eigh
from repro.linalg.lanczos import LanczosStats, lanczos_svd
from repro.linalg.svd import SVDResult, dense_svd, truncated_svd
from repro.linalg.orth import orthogonality_loss
from repro.linalg.counters import FlopCounter, OperatorCounter

__all__ = [
    "tridiag_eigh",
    "dense_svd",
    "lanczos_svd",
    "LanczosStats",
    "truncated_svd",
    "SVDResult",
    "orthogonality_loss",
    "FlopCounter",
    "OperatorCounter",
]
