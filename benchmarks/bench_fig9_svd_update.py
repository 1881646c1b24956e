"""Figure 9 — SVD-updating with the B = (A_k | D) construction.

Regenerates: the updated space whose clustering matches Figure 8
(recomputing) rather than Figure 7 (folding-in), plus the §4.3
orthogonality contrast.  Times the document SVD-update (Eq. 10), the
term SVD-update (Eq. 11) and the weight correction (Eq. 12).
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi_from_tdm
from repro.corpus.med import UPDATE_COLUMNS
from repro.updating.folding import fold_in_documents
from repro.updating.orthogonality import drift_report
from repro.updating.recompute import recompute_with_documents
from repro.updating.svd_update import (
    update_documents,
    update_terms,
    update_weights,
)
from repro.weighting.correction import weight_correction_blocks
from repro.weighting.schemes import WeightingScheme, apply_weighting


def _cos(model, a, b):
    c = model.doc_coordinates()
    va, vb = c[model.doc_index(a)], c[model.doc_index(b)]
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


def test_fig9_svd_update(benchmark, med_tdm, med_model):
    updated = benchmark(
        update_documents, med_model, UPDATE_COLUMNS, ["M15", "M16"],
        exact=True,
    )
    folded = fold_in_documents(med_model, UPDATE_COLUMNS, ["M15", "M16"])
    recomputed = recompute_with_documents(
        med_tdm, UPDATE_COLUMNS, ["M15", "M16"], 2
    )

    rows = ["cos(M13, M15) by method:"]
    for name, m in (
        ("fold-in (Fig. 7)", folded),
        ("svd-update (Fig. 9)", updated),
        ("recompute (Fig. 8)", recomputed),
    ):
        rep = drift_report(m)
        rows.append(
            f"  {name:<20s} cluster={_cos(m, 'M13', 'M15'):.3f} "
            f"‖V̂ᵀV̂−I‖₂={rep.doc_loss:.2e}"
        )
    emit("Figure 9 — SVD-updating vs folding-in vs recomputing", rows)

    # "similar clustering of terms and book titles in Figures 9 and 8 ...
    # and the difference ... with Figure 7 (folding-in)"
    assert _cos(updated, "M13", "M15") > 0.9
    assert _cos(folded, "M13", "M15") < _cos(updated, "M13", "M15")
    # §4.3: updating maintains orthogonality; folding-in corrupts it.
    assert drift_report(updated).doc_loss < 1e-10
    assert drift_report(folded).doc_loss > 0.01


def test_eq11_svd_update_terms(benchmark, med_tdm, med_model):
    """Eq. 11 with the residual kept is the rank-k SVD of C = [A_k ; T]."""
    vocab = med_tdm.vocabulary.to_list()
    T = med_tdm.matrix.to_dense()[[vocab.index(t) for t in ("blood", "pressure")]]
    updated = benchmark(
        update_terms, med_model, T, ["blood'", "pressure'"], exact=True
    )
    C = np.vstack([(med_model.U * med_model.s) @ med_model.V.T, T])
    Uc, sc, Vct = np.linalg.svd(C)
    k = med_model.k
    s_err = float(np.abs(updated.s - sc[:k]).max())
    rec_err = float(np.abs(
        (updated.U * updated.s) @ updated.V.T - (Uc[:, :k] * sc[:k]) @ Vct[:k]
    ).max())
    emit("Eq. 11 — SVD-updating terms", [
        f"  2 rows, exact: max |σ̂ − σ(C)| = {s_err:.1e}  "
        f"max |Û Σ̂ V̂ᵀ − C_k| = {rec_err:.1e}",
    ])
    assert s_err < 1e-12 and rec_err < 1e-12
    assert updated.vocabulary.to_list()[-2:] == ["blood'", "pressure'"]


def test_eq12_svd_update_weights(benchmark, med_tdm, med_model):
    """Eq. 12: re-weighting MED from raw to idf is ``W = A_k + Y_jZ_jᵀ``
    over all j = 18 term rows.  With the residuals kept the update is the
    rank-k SVD of W; at k = 14 (``A_k = A``) W is the idf matrix itself."""
    old = apply_weighting(med_tdm.matrix, WeightingScheme("raw", "none")).matrix
    new = apply_weighting(med_tdm.matrix, WeightingScheme("raw", "idf")).matrix
    Y, Z = weight_correction_blocks(old, new, range(med_tdm.matrix.shape[0]))
    updated = benchmark(update_weights, med_model, Y, Z, exact=True)
    printed = update_weights(med_model, Y, Z)
    W = (med_model.U * med_model.s) @ med_model.V.T + Y @ Z.T
    Uw, sw, Vwt = np.linalg.svd(W)
    k = med_model.k
    s_err = float(np.abs(updated.s - sw[:k]).max())
    rec_err = float(np.abs(
        (updated.U * updated.s) @ updated.V.T - (Uw[:, :k] * sw[:k]) @ Vwt[:k]
    ).max())
    full = update_weights(fit_lsi_from_tdm(med_tdm, 14), Y, Z, exact=True)
    full_err = float(np.abs(
        full.s - np.linalg.svd(new.to_dense(), compute_uv=False)
    ).max())
    emit("Eq. 12 — SVD-updating the weights, raw → idf (j = 18)", [
        f"  k={k}, exact: max |σ̂ − σ(W)| = {s_err:.1e}  "
        f"max |Û Σ̂ V̂ᵀ − W_k| = {rec_err:.1e}",
        f"  k={k}, printed σ = {np.round(printed.s, 4).tolist()} "
        f"≤ exact σ = {np.round(updated.s, 4).tolist()}",
        f"  k=14, exact: max |σ̂ − σ(idf matrix)| = {full_err:.1e}",
    ])
    assert s_err < 1e-12 and rec_err < 1e-12
    assert np.all(printed.s <= updated.s + 1e-12)
    assert full_err < 1e-12
