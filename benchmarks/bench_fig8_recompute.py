"""Figure 8 — recomputing the SVD of the reconstructed 18×16 matrix.

Regenerates: the re-derived latent structure in which the new topics
reshape the space — the {M13, M14, M15} rats cluster forms, and
"blood pressure and behavioral pressure" separate.  Times the recompute.
"""

import numpy as np

from conftest import emit
from repro.corpus.med import UPDATE_COLUMNS
from repro.updating.recompute import recompute_with_documents


def _cos(model, a, b):
    c = model.doc_coordinates()
    va, vb = c[model.doc_index(a)], c[model.doc_index(b)]
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


def test_fig8_recompute(benchmark, med_tdm, med_model):
    model = benchmark(
        recompute_with_documents, med_tdm, UPDATE_COLUMNS,
        ["M15", "M16"], 2,
    )

    rows = [
        f"original σ: ({med_model.s[0]:.4f}, {med_model.s[1]:.4f})",
        f"recomputed σ: ({model.s[0]:.4f}, {model.s[1]:.4f})",
        f"cos(M13, M15) = {_cos(model, 'M13', 'M15'):.3f}",
        f"cos(M14, M15) = {_cos(model, 'M14', 'M15'):.3f}",
        f"cos(M15, M3)  = {_cos(model, 'M15', 'M3'):.3f}",
    ]
    emit("Figure 8 — recomputed SVD of the 18×16 matrix", rows)

    # "the topics (old and new) related to the use of rats form a
    # well-defined cluster"
    assert _cos(model, "M13", "M15") > 0.95
    assert _cos(model, "M14", "M15") > 0.95
    # and the new topics redefined the structure (σ changed).
    assert not np.allclose(model.s, med_model.s, atol=1e-3)
