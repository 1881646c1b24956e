"""Retrieval evaluation in the paper's idiom (§5.1 and footnotes 1-2).

"Two measures, precision and recall, are used to summarize retrieval
performance. ... Average precision across several levels of recall can
then be used as a summary measure"; the paper's §5.2 footnote pins the
specific summary: "Performance is average precision over recall levels of
0.25, 0.50 and 0.75."
"""
