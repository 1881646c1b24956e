"""From-scratch sparse matrix substrate.

The paper's entire pipeline runs on large sparse term-document matrices
("containing only .001-.002% non-zero entries" for TREC).  This subpackage
implements the three classic storage schemes — coordinate (COO), compressed
sparse row (CSR) and compressed sparse column (CSC) — with pure-NumPy
vectorized kernels: no Python-level loops over nonzeros on any hot path.

Format roles
------------
* :class:`COOMatrix` — assembly format; cheap to build, converts to the
  compressed formats.
* :class:`CSRMatrix` — row-major compute format; fast ``A @ x`` and row
  (term) access.
* :class:`CSCMatrix` — column-major compute format; fast ``Aᵀ @ x`` and
  cheap appends of document columns.

All formats store ``float64`` data and ``int64`` indices, are immutable
after construction, and validate their invariants eagerly (see
:class:`repro.errors.SparseFormatError`).
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.build import MatrixBuilder, from_dense
from repro.sparse.ops import (
    csc_matvec,
    csr_matmat,
    csr_matvec,
    csr_rmatvec,
    hstack_csc,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "MatrixBuilder",
    "from_dense",
    "csr_matvec",
    "csr_rmatvec",
    "csc_matvec",
    "csr_matmat",
    "hstack_csc",
]
