"""The paper's worked example: 18 terms × 14 (+2) MEDLINE topics.

Everything in §3 and §4 of the paper runs on this sample: Table 2 (the 14
medical topics), Table 3 (the 18 × 14 raw-frequency matrix), the query
*"age of children with blood abnormalities"*, Table 5 (the two update
topics M15/M16), and Figures 4-9.

Transcription note (documented divergences)
-------------------------------------------
Re-deriving the matrix from the Table 2 texts with the stated parsing rule
("keywords appear in more than one topic", no stemming) differs from the
printed Table 3 in three cells:

* *respect* / M8 — printed 1, but M8's text has no "respect" (M9 does:
  "...with respect to generation and culture"; the printed row likely
  slipped one column in typesetting/OCR);
* *culture* / M8 — printed 1 from "blood cultures", which only matches
  "culture" if plurals are collapsed, contradicting the paper's own
  no-stemming statement elsewhere ("studied" in M6 is *not* counted as
  "study").

We canonicalize the **as-printed** matrix (it reproduces the Figure 5
singular vectors to ~0.05 and singular values to ~2%, closer than the
parsed variant), expose the strictly-parsed variant separately via
:func:`med_tdm_parsed`, and assert the exact cell-level relationship in
the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.build import from_dense
from repro.text.parser import ParsingRules
from repro.text.tdm import TermDocumentMatrix, build_tdm
from repro.text.vocabulary import Vocabulary

__all__ = [
    "MED_TOPICS",
    "MED_UPDATE_TOPICS",
    "MED_TERMS",
    "MED_DOC_IDS",
    "MED_QUERY",
    "MED_QUERY_TERMS",
    "TABLE3",
    "UPDATE_COLUMNS",
    "med_matrix",
    "med_update_matrix",
    "med_tdm_parsed",
    "PAPER_SIGMA_2",
    "PAPER_U2",
    "PAPER_QHAT",
    "LEXICAL_MATCH_SET",
    "LSI_085_SET",
    "MOST_RELEVANT",
]

#: Table 2 — the 14 original medical topics, keyed M1..M14.
MED_TOPICS: dict[str, str] = {
    "M1": "study of depressed patients after discharge with regard to age "
          "of onset and culture",
    "M2": "culture of pleuropneumonia like organisms found in vaginal "
          "discharge of patients",
    "M3": "study showed oestrogen production is depressed by ovarian "
          "irradiation",
    "M4": "cortisone rapidly depressed the secondary rise in oestrogen "
          "output of patients",
    "M5": "boys tend to react to death anxiety by acting out behavior "
          "while girls tended to become depressed",
    "M6": "changes in children's behavior following hospitalization "
          "studied a week after discharge",
    "M7": "surgical technique to close ventricular septal defects",
    "M8": "chromosomal abnormalities in blood cultures and bone marrow "
          "from leukaemic patients",
    "M9": "study of christmas disease with respect to generation and "
          "culture",
    "M10": "insulin not responsible for metabolic abnormalities "
           "accompanying a prolonged fast",
    "M11": "close relationship between high blood pressure and vascular "
           "disease",
    "M12": "mouse kidneys show a decline with respect to age in the "
           "ability to concentrate the urine during a water fast",
    "M13": "fast cell generation in the eye lens epithelium of rats",
    "M14": "fast rise of cerebral oxygen pressure in rats",
}

#: Table 5 — the two fictitious update topics.
MED_UPDATE_TOPICS: dict[str, str] = {
    "M15": "behavior of rats after detected rise in oestrogen",
    "M16": "depressed patients who feel the pressure to fast",
}

#: Table 3 row labels (alphabetical, as printed).
MED_TERMS: list[str] = [
    "abnormalities", "age", "behavior", "blood", "close", "culture",
    "depressed", "discharge", "disease", "fast", "generation", "oestrogen",
    "patients", "pressure", "rats", "respect", "rise", "study",
]

MED_DOC_IDS: list[str] = [f"M{i}" for i in range(1, 15)]

#: The worked query of §3.1 (raw user phrasing; *of*, *children*, *with*
#: are not indexed terms and drop out).
MED_QUERY = "age of children with blood abnormalities"

#: The indexed terms the query reduces to.
MED_QUERY_TERMS = ("age", "blood", "abnormalities")

#: Table 3, exactly as printed (see transcription note above).
TABLE3 = np.array([
    #  M1 M2 M3 M4 M5 M6 M7 M8 M9 10 11 12 13 14
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],  # abnormalities
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],  # age
    [0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],  # behavior
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0],  # blood
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0],  # close
    [1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0],  # culture
    [1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # depressed
    [1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],  # discharge
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0],  # disease
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1],  # fast
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0],  # generation
    [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],  # oestrogen
    [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0],  # patients
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1],  # pressure
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1],  # rats
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0],  # respect
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],  # rise
    [1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],  # study
], dtype=np.float64)

#: Term-frequency columns for M15 and M16 in the Table 3 term order.
#: M15: behavior, oestrogen, rats, rise.  M16: depressed, fast, patients,
#: pressure.
UPDATE_COLUMNS = np.zeros((18, 2))
for _t in ("behavior", "oestrogen", "rats", "rise"):
    UPDATE_COLUMNS[MED_TERMS.index(_t), 0] = 1.0
for _t in ("depressed", "fast", "patients", "pressure"):
    UPDATE_COLUMNS[MED_TERMS.index(_t), 1] = 1.0

# --------------------------------------------------------------------- #
# Ground truth printed in the paper (Figure 5, §3.2, Table 4)
# --------------------------------------------------------------------- #

#: Singular values shown in Figure 5.
PAPER_SIGMA_2 = np.array([3.5919, 2.6471])

#: The 18×2 U₂ block printed in Figure 5 (column signs as printed).
PAPER_U2 = np.array([
    [0.1623, -0.1372], [0.2068, -0.0488], [0.0597, 0.0614],
    [0.1663, -0.1313], [0.0258, -0.1246], [0.4534, 0.0386],
    [0.3579, 0.1710], [0.2931, 0.1426], [0.0690, -0.1576],
    [0.0940, -0.6535], [0.0599, -0.2378], [0.1560, 0.0661],
    [0.4948, 0.1091], [0.0460, -0.3393], [0.0369, -0.4196],
    [0.1797, -0.1456], [0.1087, -0.2126], [0.3814, 0.0941],
])

#: Derived query coordinates printed in Figure 5.
PAPER_QHAT = np.array([0.1491, -0.1199])

#: §3.2 — documents returned by lexical matching for the worked query.
LEXICAL_MATCH_SET = {"M1", "M8", "M10", "M11", "M12"}

#: §3.2 — documents returned by LSI (k=2) at cosine threshold 0.85.
LSI_085_SET = {"M8", "M9", "M12"}

#: §3.2 — the topic the paper highlights as most relevant (christmas
#: disease = childhood haemophilia), missed by lexical matching.
MOST_RELEVANT = "M9"


# --------------------------------------------------------------------- #
# constructors
# --------------------------------------------------------------------- #
def med_matrix() -> TermDocumentMatrix:
    """The canonical (as-printed) Table 3 matrix with its labels."""
    return TermDocumentMatrix(
        from_dense(TABLE3).to_csc(),
        Vocabulary(MED_TERMS).freeze(),
        list(MED_DOC_IDS),
    )


def med_update_matrix() -> TermDocumentMatrix:
    """The 18×2 document block D for topics M15-M16 (Table 5)."""
    return TermDocumentMatrix(
        from_dense(UPDATE_COLUMNS).to_csc(),
        Vocabulary(MED_TERMS).freeze(),
        list(MED_UPDATE_TOPICS),
    )


def med_tdm_parsed(*, include_updates: bool = False) -> TermDocumentMatrix:
    """Re-derive the matrix from the Table 2 texts with the stated rule.

    Differs from :data:`TABLE3` in the single *respect* cell (see module
    docstring).  With ``include_updates`` the Table 5 topics join the
    corpus (and the keyword set is recomputed over all 16 topics, as the
    paper does for the recompute comparison).
    """
    topics = dict(MED_TOPICS)
    if include_updates:
        topics.update(MED_UPDATE_TOPICS)
    return build_tdm(
        list(topics.values()),
        ParsingRules(min_doc_freq=2),
        doc_ids=list(topics.keys()),
    )
