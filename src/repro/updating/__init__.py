"""Updating an existing LSI database (paper §2.3 and §4).

Three ways to incorporate new terms/documents, in increasing cost and
fidelity:

* **Folding-in** (:mod:`repro.updating.folding`) — Eq. 7/8: project new
  items onto the *existing* latent structure.  Cheap (``2mkp`` flops for
  p documents), but pre-existing representations are untouched and the
  appended vectors corrupt the orthogonality of the singular-vector
  matrices (§4.3).
* **SVD-updating** (:mod:`repro.updating.svd_update`) — Eq. 10-12: SVDs
  of ``(A_k | D)``, ``[A_k ; T]`` and ``A_k + Y_j Z_jᵀ``, each one call
  of the same kernel (one small dense core SVD and one rotation per
  side; the fast update of :mod:`repro.updating.fast_update` too).  More
  expensive — the paper attributes the cost to the ``O(2k²m + 2k²n)``
  dense multiplications — but maintains a true rank-k factorization.
* **Recomputing** (:mod:`repro.updating.recompute`) — not an updating
  method: decompose the reconstructed matrix from scratch; the accuracy
  yardstick the others are compared against.

:mod:`repro.updating.cost_model` implements the Table 7 flop formulas and
:mod:`repro.updating.planner` picks the cheapest adequate method.
"""
