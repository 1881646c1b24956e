"""Figure 4 — two-dimensional plot of terms and documents (k=2).

Regenerates: the UΣ / VΣ coordinates of the 18 terms and 14 documents
and the two cluster claims the paper reads off the plot (hormone/behavior
topics vs the blood-disease/fasting group).  Times the k=2 truncated SVD.
"""

import numpy as np

from conftest import emit
from repro.core.build import fit_lsi_from_tdm
from repro.corpus.med import MED_DOC_IDS, MED_TERMS


def _cluster_cos(coords, labels, a, b):
    va, vb = coords[labels.index(a)], coords[labels.index(b)]
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


def test_fig4_coordinates(benchmark, med_tdm):
    model = benchmark(fit_lsi_from_tdm, med_tdm, 2)

    tc = model.term_coordinates()
    dc = model.doc_coordinates()
    rows = ["terms (x = σ₁u₁, y = σ₂u₂):"]
    rows += [
        f"  {t:<16s} ({tc[i, 0]:+.3f}, {tc[i, 1]:+.3f})"
        for i, t in enumerate(MED_TERMS)
    ]
    rows.append("documents (x = σ₁v₁, y = σ₂v₂):")
    rows += [
        f"  {d:<4s} ({dc[j, 0]:+.3f}, {dc[j, 1]:+.3f})"
        for j, d in enumerate(MED_DOC_IDS)
    ]
    emit("Figure 4 — term/document coordinates", rows)

    # The paper's reading of the plot: {M2, M3, M4} are similar in
    # meaning, as are {M10, M11, M12}; the rats/fast topics cluster.
    assert _cluster_cos(dc, MED_DOC_IDS, "M3", "M4") > 0.9
    assert _cluster_cos(dc, MED_DOC_IDS, "M13", "M14") > 0.9
    assert _cluster_cos(dc, MED_DOC_IDS, "M10", "M12") > 0.9
    # Polysemy claim: M1 and M2 share 'culture'/'discharge' yet are NOT
    # represented by nearly identical vectors — their plotted positions
    # are well separated (by ~44% of the coordinate scale here).
    d12 = np.linalg.norm(
        dc[MED_DOC_IDS.index("M1")] - dc[MED_DOC_IDS.index("M2")]
    )
    assert d12 > 0.25 * np.abs(dc).max()
