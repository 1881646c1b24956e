"""Figure 7 / Table 5 — folding-in the update topics M15, M16.

Regenerates: the folded coordinates and the invariance of the original
14 topics' positions.  Times the Eq. 7 fold of the two documents, and
the Eq. 8 fold of two terms.
"""

import numpy as np

from conftest import emit
from repro.corpus.med import MED_UPDATE_TOPICS, UPDATE_COLUMNS
from repro.updating.folding import fold_in_documents, fold_in_terms


def test_fig7_folding_in(benchmark, med_model):
    folded = benchmark(
        fold_in_documents, med_model, UPDATE_COLUMNS, ["M15", "M16"]
    )

    dc = folded.doc_coordinates()
    rows = [f"topics folded in: {list(MED_UPDATE_TOPICS)}"]
    for j, d in enumerate(folded.doc_ids):
        marker = "  <- new" if d in MED_UPDATE_TOPICS else ""
        rows.append(f"  {d:<4s} ({dc[j, 0]:+.3f}, {dc[j, 1]:+.3f}){marker}")
    emit("Figure 7 — folded-in medical topics", rows)

    # "the coordinates of the original topics stay fixed"
    assert np.array_equal(folded.V[:14], med_model.V)
    assert np.array_equal(folded.U, med_model.U)
    assert np.array_equal(folded.s, med_model.s)
    assert folded.doc_ids[-2:] == ["M15", "M16"]


def test_eq8_folding_in_terms(benchmark, med_tdm, med_model):
    """Eq. 8 (t̂ = t V_k Σ_k⁻¹) on rows the model already holds: since
    A V_k = U_k Σ_k, a refolded term lands exactly on its own U row."""
    vocab = med_tdm.vocabulary.to_list()
    rows = [vocab.index(t) for t in ("blood", "pressure")]
    counts = med_tdm.matrix.to_dense()[rows]
    folded = benchmark(
        fold_in_terms, med_model, counts, [f"{vocab[i]}'" for i in rows],
        med_model.global_weights[rows],
    )
    err = float(np.abs(folded.U[-2:] - med_model.U[rows]).max())
    emit("Eq. 8 — folding-in terms", [
        f"  blood, pressure refolded: max |û − u| = {err:.1e}",
    ])
    assert err < 1e-12
    assert np.array_equal(folded.U[:-2], med_model.U)
    assert np.array_equal(folded.s, med_model.s)
    assert np.array_equal(folded.V, med_model.V)
