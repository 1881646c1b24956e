"""Character n-gram features for the spelling-correction application.

Kukich's LSI spelling corrector (paper §5.4, Noisy Input) builds a matrix
whose *rows are unigrams and bigrams* (we additionally support trigrams)
*and whose columns are correctly spelled words*; an input string — spelled
correctly or not — is decomposed into its n-grams and located at the
weighted vector sum of those n-gram rows, and the nearest word column is
the suggested correction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["char_ngrams"]

#: Sentinel marking word boundaries so edge n-grams are distinct from
#: interior ones ("#ca" vs "ca" in "bobcat").
BOUNDARY = "#"


def char_ngrams(word: str, sizes: Sequence[int] = (1, 2)) -> list[str]:
    """All character n-grams of ``word`` for each size, with boundaries.

    For sizes > 1 the word is padded with one boundary marker on each side,
    so ``char_ngrams("cat", (2,))`` is ``['#c', 'ca', 'at', 't#']``.
    Unigrams are the bare characters.
    """
    word = word.lower()
    out: list[str] = []
    for size in sizes:
        if size < 1:
            raise ValueError(f"n-gram size must be >= 1, got {size}")
        if size == 1:
            out.extend(word)
            continue
        padded = BOUNDARY + word + BOUNDARY
        if len(padded) < size:
            out.append(padded)
            continue
        out.extend(padded[i : i + size] for i in range(len(padded) - size + 1))
    return out


def vocabulary_ngrams(
    words: Iterable[str], sizes: Sequence[int] = (1, 2)
) -> list[str]:
    """Sorted union of all n-grams across ``words`` (matrix row labels)."""
    grams: set[str] = set()
    for w in words:
        grams.update(char_ngrams(w, sizes))
    return sorted(grams)
