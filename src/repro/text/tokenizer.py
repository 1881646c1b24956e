"""Tokenization: the paper's minimal word-identification rule.

    "Words are identified by looking for white spaces and punctuation in
    ASCII text.  Further, no stemming is used to collapse words with the
    same morphology."  (§5.4, Cross-Language Retrieval)

So the tokenizer lowercases, splits on anything that is not a letter,
digit or intra-word apostrophe/hyphen, and performs **no** stemming or
lemmatization.  Hyphens and apostrophes are kept inside words
(``pleuropneumonia-like`` stays one token when hyphen-joined in source)
but stripped at word edges.
"""

from __future__ import annotations

import re

__all__ = ["tokenize"]

# One or more word characters, possibly joined by single internal hyphens
# or apostrophes.  ASCII-focused, matching the paper's setting.
_TOKEN_RE = re.compile(r"[a-z0-9]+(?:[-'][a-z0-9]+)*")


def tokenize(text: str, *, min_length: int = 1) -> list[str]:
    """Split ``text`` into lowercase word tokens.

    Parameters
    ----------
    text:
        Raw document text.
    min_length:
        Drop tokens shorter than this many characters.

    Returns
    -------
    list of tokens in document order (duplicates preserved — the
    term-document matrix wants raw frequencies).
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if min_length > 1:
        tokens = [t for t in tokens if len(t) >= min_length]
    return tokens
