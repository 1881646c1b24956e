"""Additional corpus behaviours: bursty noise, update-topic parsing."""

import numpy as np
import pytest

from repro.corpus.med import MED_TERMS, med_tdm_parsed
from repro.corpus.noise import _corrupt_word
from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.util.rng import ensure_rng


def test_noise_burst_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(noise_burst=0)


def test_noise_burst_creates_high_frequency_words():
    bursty = topic_collection(
        SyntheticSpec(n_topics=2, docs_per_topic=10, doc_length=60,
                      background_vocab=5, background_rate=0.3,
                      noise_burst=10),
        seed=1,
    )
    flat = topic_collection(
        SyntheticSpec(n_topics=2, docs_per_topic=10, doc_length=60,
                      background_vocab=5, background_rate=0.3,
                      noise_burst=1),
        seed=1,
    )

    def max_bg_count(col):
        best = 0
        for doc in col.documents:
            toks = doc.split()
            for w in set(toks):
                if w.startswith("bg"):
                    best = max(best, toks.count(w))
        return best

    assert max_bg_count(bursty) > max_bg_count(flat)


def test_doc_length_still_respected_with_bursts():
    col = topic_collection(
        SyntheticSpec(n_topics=2, docs_per_topic=5, doc_length=40,
                      background_vocab=5, background_rate=0.5,
                      noise_burst=12),
        seed=2,
    )
    assert all(len(d.split()) == 40 for d in col.documents)


def test_med_parsed_with_updates_extends_vocabulary():
    """Re-parsing over all 16 topics recomputes the keyword set (the
    recompute-from-scratch semantics of §3.4)."""
    base = med_tdm_parsed()
    ext = med_tdm_parsed(include_updates=True)
    assert ext.n_documents == 16
    assert ext.doc_ids[-2:] == ["M15", "M16"]
    # All original keywords survive (they still occur in >1 topic).
    for t in base.vocabulary.to_list():
        assert t in ext.vocabulary
    assert set(MED_TERMS) <= set(ext.vocabulary.to_list())


def test_corrupt_word_always_changes_input():
    rng = ensure_rng(0)
    for word in ("a", "ab", "retrieval", "x" * 30):
        for _ in range(20):
            assert _corrupt_word(word, rng) != word
