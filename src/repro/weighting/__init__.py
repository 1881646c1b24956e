"""Term weighting (Eq. 5): ``a_ij = L(i, j) × G(i)``.

"A log transformation of the local cell entries combined with a global
entropy weight for terms is the most effective term-weighting scheme.
Averaged over five test collections, log × entropy weighting was 40% more
effective than raw term weighting." (§5.1)

* :mod:`repro.weighting.local` — per-cell transforms L(i, j).
* :mod:`repro.weighting.global_` — per-term weights G(i).
* :mod:`repro.weighting.schemes` — composition, registry, and query-side
  application (queries receive the same term weights as documents).
* :mod:`repro.weighting.correction` — the ``Y_j Z_jᵀ`` blocks of the
  SVD-updating weight-correction step (Eq. 12).
"""
