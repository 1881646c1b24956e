"""TOEFL-style synonym test material (§5.4, Modeling Human Memory).

Landauer & Dumais trained LSI on an encyclopedia and answered ETS TOEFL
synonym items — "80 multiple choice test items each with a stem word and
four alternatives" — at 64% vs 33% for word-overlap methods.  The effect
rests on one property: *synonyms occur in similar contexts but rarely
co-occur in one document*.  This generator produces a corpus with exactly
that property plus a bank of 4-alternative items, so the mechanism can be
measured without the (unshippable) encyclopedia.

Each latent concept has several synonym surface forms; each generated
passage commits to one form per concept, so two forms of the same concept
share context words (other concepts of their topic) while their direct
co-occurrence count stays at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.rng import ensure_rng

__all__ = ["SynonymItem", "SynonymTest", "synonym_test"]


@dataclass(frozen=True)
class SynonymItem:
    """One multiple-choice item: stem + 4 alternatives, one correct."""

    stem: str
    alternatives: tuple[str, str, str, str]
    answer: int  # index into alternatives


@dataclass
class SynonymTest:
    """The corpus and item bank of one generated synonym test."""

    documents: list[str]
    items: list[SynonymItem]
    name: str = "synonym-test"
    #: (topic, concept) of each item's stem, for diagnostics.
    provenance: list[tuple[int, int]] = field(default_factory=list)


def synonym_test(
    *,
    n_topics: int = 12,
    concepts_per_topic: int = 12,
    synonyms_per_concept: int = 3,
    docs_per_topic: int = 30,
    doc_length: int = 50,
    n_items: int = 80,
    seed=0,
) -> SynonymTest:
    """Generate corpus + items.

    The item count defaults to the TOEFL's 80.  Distractors are drawn from
    *different* concepts (mostly of different topics), mirroring the ETS
    design where distractors are plausible words rather than near-misses.
    """
    rng = ensure_rng(seed)
    forms = [
        [
            [f"wt{t}c{c}s{s}" for s in range(synonyms_per_concept)]
            for c in range(concepts_per_topic)
        ]
        for t in range(n_topics)
    ]

    documents: list[str] = []
    for t in range(n_topics):
        probs = np.arange(1, concepts_per_topic + 1, dtype=float) ** -0.8
        probs /= probs.sum()
        for _d in range(docs_per_topic):
            preferred = rng.integers(synonyms_per_concept, size=concepts_per_topic)
            tokens = []
            for _w in range(doc_length):
                c = int(rng.choice(concepts_per_topic, p=probs))
                tokens.append(forms[t][c][int(preferred[c])])
            documents.append(" ".join(tokens))

    items: list[SynonymItem] = []
    provenance: list[tuple[int, int]] = []
    for _i in range(n_items):
        t = int(rng.integers(n_topics))
        c = int(rng.integers(concepts_per_topic))
        s_stem, s_correct = rng.choice(synonyms_per_concept, size=2, replace=False)
        stem = forms[t][c][int(s_stem)]
        correct = forms[t][c][int(s_correct)]
        distractors: list[str] = []
        while len(distractors) < 3:
            dt = int(rng.integers(n_topics))
            dc = int(rng.integers(concepts_per_topic))
            if dt == t and dc == c:
                continue
            w = forms[dt][dc][int(rng.integers(synonyms_per_concept))]
            if w != stem and w != correct and w not in distractors:
                distractors.append(w)
        answer = int(rng.integers(4))
        alts = distractors[:answer] + [correct] + distractors[answer:]
        items.append(SynonymItem(stem, tuple(alts), answer))
        provenance.append((t, c))

    return SynonymTest(documents, items, provenance=provenance)
