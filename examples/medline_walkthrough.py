"""The paper's full worked example (§3-§4), end to end.

Run:  python examples/medline_walkthrough.py

Reproduces, in order: the Table 3 matrix, the Figure 4 coordinates, the
Figure 5 query projection, the Figure 6 threshold retrieval, the Table 4
factor sweep, and the §3.3-§4.4 update study (folding-in vs SVD-updating
vs recomputing, with the §4.3 orthogonality measurements).
"""

import numpy as np

from repro.core.build import fit_lsi_from_tdm
from repro.core.query import project_query
from repro.core.similarity import retrieve
from repro.corpus.med import (
    MED_QUERY,
    MED_TERMS,
    MED_UPDATE_TOPICS,
    PAPER_QHAT,
    PAPER_SIGMA_2,
    UPDATE_COLUMNS,
    med_matrix,
)
from repro.updating.folding import fold_in_documents
from repro.updating.orthogonality import drift_report
from repro.updating.recompute import recompute_with_documents
from repro.updating.svd_update import update_documents


def doc_cos(model, a, b):
    c = model.doc_coordinates()
    va, vb = c[model.doc_index(a)], c[model.doc_index(b)]
    return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))


def main() -> None:
    tdm = med_matrix()
    print(f"Table 3: {tdm.shape[0]} terms × {tdm.shape[1]} documents, "
          f"{tdm.matrix.nnz} nonzeros")

    # ---- Figures 4-5: the k=2 space ---------------------------------- #
    model = fit_lsi_from_tdm(tdm, 2)
    print(f"\nsingular values: ours {model.s.round(4)}, "
          f"paper {PAPER_SIGMA_2}")
    tc = model.term_coordinates()
    print("a few term coordinates (Figure 4):")
    for term in ("depressed", "fast", "rats", "culture"):
        i = MED_TERMS.index(term)
        print(f"  {term:<12s} ({tc[i, 0]:+.3f}, {tc[i, 1]:+.3f})")

    qhat = project_query(model, MED_QUERY)
    print(f"\nquery {MED_QUERY!r}")
    print(f"q̂ = {qhat.round(4)}  (paper, up to column signs: {PAPER_QHAT})")

    # ---- Figure 6: threshold retrieval ------------------------------- #
    for thr in (0.85, 0.75):
        hits = retrieve(model, qhat, threshold=thr)
        print(f"cosine ≥ {thr}: " + ", ".join(f"{d}({c:.2f})" for d, c in hits))

    # ---- Table 4: the effect of k ------------------------------------ #
    base8 = fit_lsi_from_tdm(tdm, 8)
    print("\nTable 4 — returned documents (cosine ≥ 0.40) by k:")
    for k in (2, 4, 8):
        mk = base8.truncated(k)
        qk = project_query(mk, MED_QUERY)
        hits = retrieve(mk, qk, threshold=0.40)
        print(f"  k={k}: " + ", ".join(f"{d} {c:.2f}" for d, c in hits))

    # ---- §3.3-§4.4: updating with M15, M16 --------------------------- #
    print(f"\nupdate topics: {MED_UPDATE_TOPICS}")
    folded = fold_in_documents(model, UPDATE_COLUMNS, ["M15", "M16"])
    updated = update_documents(
        model, UPDATE_COLUMNS, ["M15", "M16"], exact=True
    )
    recomputed = recompute_with_documents(
        tdm, UPDATE_COLUMNS, ["M15", "M16"], 2
    )
    print("does M15 join the {M13, M14} rats cluster?  cos(M13, M15):")
    for name, m in (
        ("fold-in   (Fig. 7)", folded),
        ("svd-update (Fig. 9)", updated),
        ("recompute (Fig. 8)", recomputed),
    ):
        rep = drift_report(m)
        print(f"  {name:<20s} {doc_cos(m, 'M13', 'M15'):.3f}   "
              f"‖V̂ᵀV̂−I‖₂ = {rep.doc_loss:.2e}")
    print("\nfold-in leaves old coordinates untouched but corrupts "
          "orthogonality; SVD-updating/recomputing re-derive the "
          "structure (the rats cluster forms) with exact orthogonality.")


if __name__ == "__main__":
    main()
