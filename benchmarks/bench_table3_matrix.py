"""Table 2/3 — parse the 14 medical topics into the 18×14 matrix.

Regenerates: the keyword set (words in more than one topic) and the
term-document matrix of raw frequencies.  Times the full parse+assemble
pipeline.
"""

import numpy as np

from conftest import emit
from repro.corpus.med import MED_TERMS, MED_TOPICS, TABLE3, med_tdm_parsed
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm


def test_table3_parse_and_assemble(benchmark):
    texts = list(MED_TOPICS.values())

    tdm = benchmark(
        build_tdm, texts, ParsingRules(min_doc_freq=2),
        doc_ids=list(MED_TOPICS),
    )

    assert tdm.shape == (18, 14)
    assert tdm.vocabulary.to_list() == MED_TERMS

    dense = tdm.to_dense()
    header = "term            " + " ".join(f"{d:>3s}" for d in MED_TOPICS)
    rows = [header]
    for i, term in enumerate(MED_TERMS):
        cells = " ".join(f"{int(v):>3d}" for v in dense[i])
        rows.append(f"{term:<16s}{cells}")
    diff = int(np.sum(dense != TABLE3))
    rows.append(
        f"cells differing from printed Table 3: {diff} "
        "(documented transcription divergence)"
    )
    emit("Table 3 — 18×14 term-document matrix (parsed from Table 2)", rows)
    assert diff <= 3
