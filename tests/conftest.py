"""Shared fixtures.

Expensive artifacts (fitted models, generated collections) are session-
scoped; tests must not mutate them — the library's immutability rules are
themselves under test, so accidental mutation fails loudly.

The property tests run derandomized (the ``tier1`` hypothesis profile
below: examples seeded from each test's source, no example database), so
a tier-1 result depends on the code alone and two commits can be
compared.  To explore instead, pass a seed, which overrides the
profile: ``python -m pytest tests --hypothesis-seed=random`` (the seed
is printed with any failure, for ``--hypothesis-seed=<n>``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core.build import fit_lsi, fit_lsi_from_tdm
from repro.corpus.med import MED_TOPICS, med_matrix
from repro.corpus.synthetic import SyntheticSpec, topic_collection

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _obs_state_in_tmp(tmp_path, monkeypatch):
    """Keep the CLI observability state file out of the repo tree: any
    in-process ``repro`` command persists to a per-test temp path."""
    monkeypatch.setenv("REPRO_OBS_STATE", str(tmp_path / "obs_state.json"))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def med_tdm():
    """The canonical 18×14 Table 3 matrix."""
    return med_matrix()


@pytest.fixture(scope="session")
def med_model(med_tdm):
    """The k=2 model of the paper's worked example (raw weighting)."""
    return fit_lsi_from_tdm(med_tdm, 2)


@pytest.fixture(scope="session")
def med_model_k8(med_tdm):
    """A higher-rank model of the same example for k-sweep tests."""
    return fit_lsi_from_tdm(med_tdm, 8)


@pytest.fixture(scope="session")
def med_texts():
    return [MED_TOPICS[f"M{i}"] for i in range(1, 15)]


@pytest.fixture(scope="session")
def small_collection():
    """A small synthetic collection with strong synonymy."""
    return topic_collection(
        SyntheticSpec(
            n_topics=4,
            docs_per_topic=10,
            doc_length=40,
            concepts_per_topic=10,
            synonyms_per_concept=3,
            queries_per_topic=2,
            query_length=3,
            query_synonym_shift=0.8,
            background_vocab=15,
            background_rate=0.1,
        ),
        seed=42,
    )


@pytest.fixture(scope="session")
def small_lsi(small_collection):
    return fit_lsi(
        small_collection.documents, k=8, scheme="log_entropy", seed=0
    )


@pytest.fixture
def open_counts(monkeypatch):
    """Count what opening a checkpoint costs: every manifest parse and
    every array-file CRC read, by path (``.reset()`` between phases)."""
    from repro.store import checkpoint

    class Counts:
        def __init__(self):
            self.parses, self.crcs = [], []

        def reset(self):
            self.parses.clear()
            self.crcs.clear()

    counts = Counts()
    load_manifest, file_crc32 = checkpoint.load_manifest, checkpoint._file_crc32

    def counting_load_manifest(path):
        counts.parses.append(path)
        return load_manifest(path)

    def counting_file_crc32(path):
        counts.crcs.append(path)
        return file_crc32(path)

    monkeypatch.setattr(checkpoint, "load_manifest", counting_load_manifest)
    monkeypatch.setattr(checkpoint, "_file_crc32", counting_file_crc32)
    return counts
