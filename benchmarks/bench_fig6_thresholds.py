"""Figure 6 / §3.2 — cosine-threshold retrieval vs lexical matching.

Regenerates: the documents within cosine 0.85 (and 0.75) of the worked
query, and the lexical-match contrast set {M1, M8, M10, M11, M12}.
Times the full query→rank→threshold path.
"""

from conftest import emit
from repro.core.query import project_query
from repro.core.similarity import retrieve
from repro.corpus.med import (
    LEXICAL_MATCH_SET,
    MED_QUERY,
    MED_TOPICS,
    MOST_RELEVANT,
)
from repro.retrieval.keyword import KeywordRetrieval
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm


def test_fig6_threshold_retrieval(benchmark, med_model):
    def run():
        qhat = project_query(med_model, MED_QUERY)
        return retrieve(med_model, qhat, threshold=0.85)

    hits85 = benchmark(run)
    qhat = project_query(med_model, MED_QUERY)
    hits75 = retrieve(med_model, qhat, threshold=0.75)

    kw = KeywordRetrieval(
        build_tdm(
            list(MED_TOPICS.values()), ParsingRules(min_doc_freq=2),
            doc_ids=list(MED_TOPICS),
        )
    )
    lexical = {list(MED_TOPICS)[j] for j in kw.matching_documents(MED_QUERY)}

    rows = [
        f"query: {MED_QUERY!r}",
        "LSI  cosine ≥ 0.85: "
        + ", ".join(f"{d} ({c:.2f})" for d, c in hits85)
        + "   [paper: M8 M9 M12]",
        "LSI  cosine ≥ 0.75: "
        + ", ".join(f"{d} ({c:.2f})" for d, c in hits75)
        + "   [paper adds M7 M11]",
        f"lexical matching:  {sorted(lexical)}   [paper: M1 M8 M10 M11 M12]",
    ]
    emit("Figure 6 — threshold retrieval vs lexical matching", rows)

    ids85 = {d for d, _ in hits85}
    # The paper's set-level claims.
    assert lexical == LEXICAL_MATCH_SET
    assert {"M8", "M9", "M12"} <= ids85
    assert MOST_RELEVANT in ids85 and MOST_RELEVANT not in lexical
    assert "M1" not in ids85 and "M10" not in ids85
    assert {"M7", "M11"} <= {d for d, _ in hits75}
