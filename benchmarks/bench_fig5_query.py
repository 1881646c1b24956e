"""Figure 5 — derived coordinates of the query "age blood abnormalities".

Regenerates: the singular values (paper: 3.5919, 2.6471), the U₂ block,
and the query projection q̂ = qᵀU₂Σ₂⁻¹ (paper: (0.1491, −0.1199)).
Times Eq. 6.
"""

import numpy as np

from conftest import emit
from repro.core.query import project_query
from repro.corpus.med import MED_QUERY, MED_TERMS, PAPER_QHAT, PAPER_SIGMA_2, PAPER_U2


def test_fig5_query_projection(benchmark, med_model):
    qhat = benchmark(project_query, med_model, MED_QUERY)

    # Sign-align our U with the paper's printed column signs.
    U2 = med_model.U.copy()
    flip = np.ones(2)
    for c in range(2):
        i = np.argmax(np.abs(PAPER_U2[:, c]))
        if np.sign(U2[i, c]) != np.sign(PAPER_U2[i, c]):
            U2[:, c] *= -1
            flip[c] = -1

    rows = [
        f"singular values: ours ({med_model.s[0]:.4f}, {med_model.s[1]:.4f})"
        f"  paper ({PAPER_SIGMA_2[0]:.4f}, {PAPER_SIGMA_2[1]:.4f})",
        f"query q̂: ours ({qhat[0] * flip[0]:+.4f}, {qhat[1] * flip[1]:+.4f})"
        f"  paper ({PAPER_QHAT[0]:+.4f}, {PAPER_QHAT[1]:+.4f})",
        "U₂ (ours vs paper, sign-aligned):",
    ]
    for i, term in enumerate(MED_TERMS):
        rows.append(
            f"  {term:<16s} ({U2[i, 0]:+.4f}, {U2[i, 1]:+.4f})  "
            f"({PAPER_U2[i, 0]:+.4f}, {PAPER_U2[i, 1]:+.4f})"
        )
    rows.append(f"max |U₂ − paper| = {np.abs(U2 - PAPER_U2).max():.4f}")
    emit("Figure 5 — query coordinates", rows)

    assert np.allclose(med_model.s, PAPER_SIGMA_2, atol=0.09)
    assert np.abs(U2 - PAPER_U2).max() < 0.06
    assert np.abs(qhat * flip - PAPER_QHAT).max() < 0.03
