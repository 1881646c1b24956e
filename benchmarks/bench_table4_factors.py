"""Table 4 — returned documents at different numbers of LSI factors.

Regenerates: the ranked lists with cosines at k = 2, 4, 8 under the
threshold 0.40, printed beside the paper's columns.  Times the k-sweep
(three truncations + three retrievals over one k=8 decomposition).
"""

from conftest import emit
from repro.core.build import fit_lsi_from_tdm
from repro.core.query import project_query
from repro.core.similarity import retrieve
from repro.corpus.med import MED_QUERY

PAPER_COLUMNS = {
    2: [("M9", 1.00), ("M12", 0.88), ("M8", 0.85), ("M11", 0.82),
        ("M10", 0.79), ("M7", 0.74), ("M14", 0.72), ("M13", 0.71),
        ("M4", 0.67), ("M1", 0.56), ("M2", 0.42)],
    4: [("M8", 0.92), ("M9", 0.89), ("M2", 0.64), ("M10", 0.48),
        ("M12", 0.46)],
    8: [("M8", 0.67), ("M12", 0.55), ("M10", 0.54), ("M11", 0.40)],
}


def test_table4_factor_sweep(benchmark, med_tdm):
    def sweep():
        base = fit_lsi_from_tdm(med_tdm, 8)
        out = {}
        for k in (2, 4, 8):
            model = base.truncated(k)
            qhat = project_query(model, MED_QUERY)
            out[k] = retrieve(model, qhat, threshold=0.40)
        return out

    ours = benchmark(sweep)

    rows = []
    for k in (2, 4, 8):
        rows.append(f"k={k}:")
        rows.append(
            "  ours : " + ", ".join(f"{d} {c:.2f}" for d, c in ours[k])
        )
        rows.append(
            "  paper: "
            + ", ".join(f"{d} {c:.2f}" for d, c in PAPER_COLUMNS[k])
        )
    emit("Table 4 — returned documents by number of factors", rows)

    # Shape claims: list shrinks as k grows; M8 near the top throughout;
    # the cosine of any fixed document moves with k (the paper's point
    # that the cosine is only a rank-ordering device).
    assert len(ours[8]) < len(ours[2])
    for k in (2, 4, 8):
        top4 = [d for d, _ in ours[k][:4]]
        assert "M8" in top4
    cos_m8 = {k: dict(ours[k]).get("M8") for k in (2, 4, 8)}
    assert abs(cos_m8[2] - cos_m8[8]) > 0.05
