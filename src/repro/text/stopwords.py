"""Stop-word list in the SMART tradition.

The paper's worked example drops *of*, *children*, *with* from the query
"age of children with blood abnormalities" because they "are not indexed
terms (i.e., stop words)" — *of* and *with* by this list, *children* by the
min-document-frequency parsing rule.  The list below is a compact core of
the SMART stop list (Salton's system, the paper's baseline): determiners,
prepositions, conjunctions, pronouns, auxiliaries and a few high-frequency
adverbs.  Deliberately conservative — LSI itself de-weights uninformative
terms, so an aggressive list is unnecessary.
"""

from __future__ import annotations

__all__ = ["DEFAULT_STOPWORDS"]

DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are aren't as at
    be because been before being below between both but by
    can cannot could couldn't
    did didn't do does doesn't doing don't down during
    each
    few for from further
    had hadn't has hasn't have haven't having he her here hers herself him
    himself his how
    i if in into is isn't it its itself
    just
    like
    me more most my myself
    no nor not now
    of off on once only or other our ours ourselves out over own
    s same she should shouldn't so some such
    t than that the their theirs them themselves then there these they
    this those through to too
    under until up upon
    very
    was wasn't we were weren't what when where which while who whom why
    will with won't would wouldn't
    you your yours yourself yourselves
    """.split()
)
