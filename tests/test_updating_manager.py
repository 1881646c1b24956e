"""Tests for the incremental index manager."""

import numpy as np
import pytest

from repro.corpus.synthetic import SyntheticSpec, topic_collection
from repro.errors import ShapeError
from repro.text.parser import ParsingRules
from repro.text.tdm import build_tdm
from repro.updating import manager
from repro.updating.manager import LSIIndexManager


@pytest.fixture
def manager_setup():
    col = topic_collection(
        SyntheticSpec(n_topics=4, docs_per_topic=15, doc_length=30,
                      concepts_per_topic=10, queries_per_topic=1),
        seed=50,
    )
    train = col.documents[:40]
    later = col.documents[40:]
    tdm = build_tdm(train, ParsingRules())
    mgr = LSIIndexManager(tdm, k=8, scheme=None, distortion_budget=0.1)
    return mgr, later


def test_initial_state(manager_setup):
    mgr, _ = manager_setup
    assert mgr.n_documents == 40
    assert mgr.pending == 0
    assert mgr.drift() < 1e-10


def test_small_additions_fold(manager_setup):
    mgr, later = manager_setup
    event = mgr.add_texts(later[:2])
    assert event.action == "fold-in"
    assert mgr.pending == 2
    assert mgr.n_documents == 42
    assert mgr.model.provenance == "fold-in"


def test_budget_triggers_consolidation(manager_setup):
    mgr, later = manager_setup
    # 10% of 40 = 4 documents; the 5th pending document exceeds it.
    actions = []
    for text in later[:6]:
        actions.append(mgr.add_texts([text]).action)
    assert "fold-in" in actions
    assert any(a in ("svd-update", "recompute") for a in actions)
    # After consolidation, pending resets and drift is repaired.
    assert mgr.pending < 5
    last_consolidation = max(
        i for i, a in enumerate(actions) if a != "fold-in"
    )
    if last_consolidation == len(actions) - 1:
        assert mgr.drift() < 1e-8


def test_consolidation_preserves_document_count(manager_setup):
    mgr, later = manager_setup
    for text in later[:8]:
        mgr.add_texts([text])
    assert mgr.n_documents == 48
    assert mgr.tdm.n_documents + mgr.pending == 48


def test_queries_see_all_documents_immediately(manager_setup):
    mgr, later = manager_setup
    from repro.core.query import project_query
    from repro.core.similarity import retrieve

    mgr.add_texts([later[0]], doc_ids=["FRESH"])
    qhat = project_query(mgr.model, later[0])
    ids = [d for d, _ in retrieve(mgr.model, qhat, top=3)]
    assert "FRESH" in ids


def test_drift_cap_forces_recompute(monkeypatch):
    monkeypatch.setattr(manager, "DRIFT_CAP", 1e-12)  # impossible cap
    col = topic_collection(
        SyntheticSpec(n_topics=3, docs_per_topic=10, doc_length=25,
                      concepts_per_topic=8, queries_per_topic=1),
        seed=51,
    )
    tdm = build_tdm(col.documents[:20], ParsingRules())
    mgr = LSIIndexManager(tdm, k=6, distortion_budget=0.9)
    event = mgr.add_texts(col.documents[20:22])
    assert event.action == "recompute"
    assert "drift" in event.reason


def test_add_validation(manager_setup):
    mgr, later = manager_setup
    with pytest.raises(ShapeError):
        mgr.add_texts([])
    with pytest.raises(ShapeError):
        mgr.add_texts(later[:2], doc_ids=["one"])
    with pytest.raises(ShapeError):
        mgr.add_counts(np.zeros((3, 1)), ["x"])


@pytest.mark.parametrize(
    "doc_ids",
    [
        "xy",  # a string is not a list of ids
        [7, None],
        ["ok", ""],
        ["same", "same"],
        ["fresh", "HELD"],  # HELD is replaced by an id the index holds
    ],
)
def test_add_rejects_bad_doc_ids_before_anything_changes(manager_setup, doc_ids):
    mgr, later = manager_setup
    mgr.add_texts(later[:1], doc_ids=["first"])
    doc_ids = [mgr.model.doc_ids[0] if d == "HELD" else d for d in doc_ids] \
        if isinstance(doc_ids, list) else doc_ids
    model, pending = mgr.model, mgr.pending
    with pytest.raises(ShapeError):
        mgr.add_texts(later[1:3], doc_ids=doc_ids)
    with pytest.raises(ShapeError):  # a folded-in (pending) id is held too
        mgr.add_texts(later[1:2], doc_ids=["first"])
    assert mgr.model is model and mgr.pending == pending
    mgr.add_texts(later[1:3], doc_ids=("new-1", "new-2"))
    assert mgr.model.doc_ids[-2:] == ["new-1", "new-2"]


def test_events_log_grows(manager_setup):
    # Each add returns its own event; a caller's log of them grows by one.
    mgr, later = manager_setup
    events = [mgr.add_texts([text]) for text in later[:3]]
    assert all(e.n_documents == 1 for e in events)
    assert [e.pending_before for e in events] == [0, 1, 2]


def _replay_sequence(mgr, later):
    """A fixed add sequence crossing fold-in AND consolidation events
    (10% of 40 documents: the fifth pending one consolidates)."""
    events = [
        mgr.add_texts([text], doc_ids=[f"R{i}"])
        for i, text in enumerate(later[:7])
    ]
    assert {e.action for e in events} == {"fold-in", "svd-update"}
    return mgr, events


def test_event_replay_is_bit_deterministic():
    # The durability contract of repro.store: given the same initial
    # state and seed, replaying the same event sequence reproduces the
    # factor matrices bit-for-bit — not approximately, identically.
    def build():
        col = topic_collection(
            SyntheticSpec(n_topics=4, docs_per_topic=15, doc_length=30,
                          concepts_per_topic=10, queries_per_topic=1),
            seed=50,
        )
        train, later = col.documents[:40], col.documents[40:]
        tdm = build_tdm(train, ParsingRules())
        mgr = LSIIndexManager(tdm, k=8, scheme="log_entropy",
                              distortion_budget=0.1, seed=3)
        return _replay_sequence(mgr, later)

    (a, a_events), (b, b_events) = build(), build()
    assert np.array_equal(a.model.U, b.model.U)
    assert np.array_equal(a.model.s, b.model.s)
    assert np.array_equal(a.model.V, b.model.V)
    assert np.array_equal(a.model.global_weights, b.model.global_weights)
    assert a.model.doc_ids == b.model.doc_ids
    assert a_events == b_events


def test_restore_resumes_identically(manager_setup):
    from repro.store.recovery import capture_manager, restore_manager

    mgr, later = manager_setup
    mgr.add_texts(later[:2])
    twin = restore_manager(*capture_manager(mgr))
    # Divergence after restore would make WAL replay unsound; both
    # managers must make the same planner decisions and produce the
    # same arrays for the remainder of the stream.
    for text in later[2:6]:
        ea = mgr.add_texts([text])
        eb = twin.add_texts([text])
        assert (ea.action, ea.reason) == (eb.action, eb.reason)
    assert np.array_equal(mgr.model.U, twin.model.U)
    assert np.array_equal(mgr.model.s, twin.model.s)
    assert np.array_equal(mgr.model.V, twin.model.V)
