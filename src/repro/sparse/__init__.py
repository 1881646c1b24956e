"""From-scratch sparse matrix substrate.

The paper's entire pipeline runs on large sparse term-document matrices
("containing only .001-.002% non-zero entries" for TREC), and its
Lanczos SVD (SVDPACKC's ``las2``) reads one compressed-column matrix.
This subpackage implements that one storage scheme, compressed sparse
column (:class:`CSCMatrix`), with pure-NumPy vectorized kernels: no
Python-level loops over nonzeros on any hot path.

* :meth:`CSCMatrix.from_triples` — assembly from ``(row, col, value)``
  triples, duplicates summed (term counting emits one triple per token);
* :func:`from_dense` — sparsify a dense array;
* :func:`hstack_csc` — append document columns (the ``D`` block of
  Eq. 10);
* :mod:`repro.sparse.ops` — the ``A @ x``, ``Aᵀ @ y`` and ``A @ X``
  kernels.

A matrix stores ``float64`` data and ``int64`` indices, is immutable
after construction, and validates its invariants eagerly (see
:class:`repro.errors.SparseFormatError`).
"""

from repro.sparse.csc import CSCMatrix, hstack_csc
from repro.sparse.build import from_dense

__all__ = ["CSCMatrix", "from_dense", "hstack_csc"]
