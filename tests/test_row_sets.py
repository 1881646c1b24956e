"""One row set per side of the space: every library score reads the memo.

Terms are compared as rows of ``U_k Σ_k`` exactly as documents are as
rows of ``V_k Σ_k`` (§5.4: "there is no reason that similar terms could
not be returned"), so both sides are one :class:`ScaledRows` memo on the
model (:func:`scaled_terms`, :func:`scaled_documents`) and every ranked
term or document neighbour list is a ``ranked_scan`` of it.  Each site
is held here to the formula the library used before: the stable
descending sort of the fp64 ``cosine_scores`` over the whole product
``U * s`` (or ``V * s``), then the skip / threshold / ``[:top]`` cut —
indices element-identical, scores within 1e-12.  The fixture makes
exact ties: its duplicate-text terms and documents get bit-equal factor
rows (a fit leaves them a few ulps apart, which orders them by rounding
rather than by index).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.apps.crosslanguage import CrossLanguageRetrieval
from repro.apps.netlib import NetlibSearch
from repro.apps.synonyms import run_synonym_test
from repro.apps.thesaurus import build_thesaurus, suggest_index_terms
from repro.core.build import fit_lsi
from repro.core.model import LSIModel
from repro.core.query import project_query
from repro.core.similarity import nearest_terms
from repro.corpus.crosslang import crosslang_collection
from repro.corpus.netlib_like import NetlibCatalogue
from repro.corpus.synonym_test import SynonymItem, SynonymTest
from repro.obs.metrics import registry
from repro.retrieval.multitopic import MultiTopicQuery, multi_topic_scores
from repro.serving.ann import CoarseQuantizer
from repro.serving.index import scaled_documents, scaled_terms
from repro.serving.kernel import ROW_BLOCK, SCAN_WIDTH, cosine_scores
from repro.serving.snapshot import EpochSnapshot
from repro.text.vocabulary import Vocabulary
from tests.test_serving_scan import assert_ranking_matches

WORDS = (
    "apple brick cloud dune ember frost grove harbor iris jade kelp lime "
    "moss nut opal pine quartz reed sage teak"
).split()
TEXTS = [
    f"{WORDS[j]} {WORDS[(j + 1) % 20]} {WORDS[(j + 3) % 20]} "
    f"{WORDS[(j + 7) % 20]}" + (" twin mate" if j % 3 == 0 else "")
    for j in range(20)
]
#: Documents 20 and 21 repeat documents 0 and 5.
TEXTS += [TEXTS[0], TEXTS[5]]


@pytest.fixture(scope="module")
def tied():
    """22 terms ("twin" and "mate" always together) over 22 documents."""
    model = fit_lsi(TEXTS, 5, doc_ids=[f"D{j}" for j in range(len(TEXTS))])
    U, V = model.U.copy(), model.V.copy()
    vocab = model.vocabulary
    U[vocab.id_of("mate")] = U[vocab.id_of("twin")]
    V[20], V[21] = V[0], V[5]
    return dataclasses.replace(model, U=U, V=V)


def parent_cut(cos, top=None, threshold=None, skip=()):
    """Stable descending sort, skipped rows out, threshold, ``[:top]``."""
    out = [
        (int(j), float(cos[j]))
        for j in np.argsort(-cos, kind="stable")
        if int(j) not in skip
    ]
    if threshold is not None:
        out = [(j, c) for j, c in out if c >= threshold]
    return out if top is None else out[:top]


def whole(rows, s, q):
    """The fp64 scores of the whole product, as the library formed them."""
    return cosine_scores(rows * s, q)[0]


def tops(size):
    return (0, 1, size, size + 3)


def test_the_term_memo_is_the_models_own_and_replace_drops_it(tied):
    model = dataclasses.replace(tied)
    builds = registry.counter("serving.index_builds")
    terms = scaled_terms(model)
    assert scaled_terms(model) is terms
    assert terms.V is model.U and terms.s is model.s
    assert terms.order is None
    assert scaled_documents(model).V is model.V  # the other side
    assert registry.counter("serving.index_builds") == builds + 2
    assert not terms.norms.flags.writeable and not terms.unit.flags.writeable
    successor = dataclasses.replace(model)
    assert scaled_terms(successor) is not terms


def test_nearest_terms_is_the_parents_cut(tied):
    vocab, coords = tied.vocabulary, tied.U * tied.s
    for i, term in enumerate(vocab.to_list()):
        cos = cosine_scores(coords, coords[i])[0]
        for top in tops(tied.n_terms):
            for skip_self in (True, False):
                got = nearest_terms(tied, term, top=top, skip_self=skip_self)
                want = parent_cut(cos, top, skip={i} if skip_self else ())
                assert_ranking_matches(
                    [(vocab.id_of(t), c) for t, c in got], want
                )


def test_suggest_index_terms_is_the_parents_cut(tied):
    vocab = tied.vocabulary
    # The last text is all out of vocabulary: a zero query, every score 0.
    for text in (TEXTS[3], "twin mate apple", "zebra yak"):
        cos = whole(tied.U, tied.s, project_query(tied, text) * tied.s)
        for top in (None, *tops(tied.n_terms)):
            got = suggest_index_terms(tied, text, top=top)
            assert_ranking_matches(
                [(vocab.id_of(t), c) for t, c in got], parent_cut(cos, top)
            )


def test_build_thesaurus_crosses_a_flush_boundary(tied):
    vocab, coords = tied.vocabulary, tied.U * tied.s
    assert tied.n_terms > SCAN_WIDTH
    for top in tops(tied.n_terms):
        for floor in (0.0, 0.5, -1.0):
            got = build_thesaurus(tied, top=top, min_similarity=floor)
            assert list(got) == vocab.to_list()
            for i, term in enumerate(vocab.to_list()):
                cos = cosine_scores(coords, coords[i])[0]
                want = parent_cut(cos, top, skip={i})
                want = [(j, c) for j, c in want if c >= floor]
                assert_ranking_matches(
                    [(vocab.id_of(t), c) for t, c in got[term]], want
                )


def test_more_like_is_the_parents_cut(tied):
    catalogue = NetlibCatalogue(
        names=tied.doc_ids, descriptions=TEXTS, entry_family=[0] * 22,
        queries=[], query_family=[], digests=[],
    )
    search = NetlibSearch(catalogue, tied)
    coords = tied.V * tied.s
    for j, name in enumerate(tied.doc_ids):
        cos = cosine_scores(coords, coords[j])[0]
        for top in tops(tied.n_documents):
            got = search.more_like(name, top=top)
            assert_ranking_matches(
                [(tied.doc_index(d), c) for d, c in got],
                parent_cut(cos, top, skip={j}),
            )


@pytest.fixture(scope="module")
def crosslang():
    corpus = crosslang_collection()
    return corpus, CrossLanguageRetrieval.train(corpus, 10)


def test_a_restricted_crosslanguage_search_is_the_parents_cut(crosslang):
    corpus, engine = crosslang
    model = engine.model
    folded = np.arange(engine.n_training, model.n_documents)
    langs = np.asarray(engine.languages)
    # The last query is all out of vocabulary: every score ties at 0.
    for query in (corpus.english[0], corpus.french[1], "zzz qqq"):
        qhat = project_query(model, query) * model.s
        for language in ("en", "fr", None):
            rows = folded if language is None else folded[langs == language]
            cos = whole(model.V[rows], model.s, qhat)
            for top in (None, *tops(rows.size)):
                got = engine.search(query, language=language, top=top)
                want = [(int(rows[i]), c) for i, c in parent_cut(cos, top)]
                assert_ranking_matches(
                    [(model.doc_index(d), c) for d, c in got], want
                )


def test_a_restricted_search_reads_a_memo_laid_out_by_cells(crosslang):
    """A quantizer lays the unit rows out cell by cell: the language's
    rows are then other positions, and the answer is the same bits."""
    corpus, engine = crosslang
    model = dataclasses.replace(engine.model)
    want = engine.search(corpus.english[0], language="fr", top=5)
    ann = CoarseQuantizer.train(model.V, model.s, 4, seed=0)
    EpochSnapshot(0, model, ann=ann)
    assert scaled_documents(model).order is not None
    laid = CrossLanguageRetrieval(model, engine.n_training, engine.languages)
    assert laid.search(corpus.english[0], language="fr", top=5) == want


def test_an_unknown_language_is_an_error_not_an_empty_answer(crosslang):
    corpus, engine = crosslang
    with pytest.raises(ValueError, match=r"'de'.*\['en', 'fr'\]"):
        engine.search(corpus.english[0], language="de")


def test_synonym_picks_are_the_parents(tied):
    vocab, coords = tied.vocabulary, tied.U * tied.s
    terms = vocab.to_list()
    # "twin" and "mate" tie against every stem: the first of them wins.
    items = [
        SynonymItem(stem, (terms[(i + 5) % 22], "twin", "mate", "absent"), 0)
        for i, stem in enumerate(terms)
    ] + [SynonymItem("absent", ("apple", "twin", "mate", "moss"), 0)]
    test = SynonymTest(documents=TEXTS, items=items)
    got = run_synonym_test(tied, test)
    for item, pick in zip(items, got.choices):
        if item.stem not in vocab:
            assert pick == 0
            continue
        sims = cosine_scores(coords, coords[vocab.id_of(item.stem)])[0]
        scores = [
            sims[vocab.get(a)] if a in vocab else -np.inf
            for a in item.alternatives
        ]
        assert pick == int(np.argmax(scores)), item


@pytest.mark.parametrize("rule", ["max", "mean", "density"])
def test_multi_topic_scores_are_the_full_products(tied, rule):
    query = MultiTopicQuery.from_texts(tied, [TEXTS[1], TEXTS[8], "twin"])
    cos = cosine_scores(tied.V * tied.s, query.points * tied.s)
    want = {
        "max": cos.max(axis=0),
        "mean": query.weights @ cos,
        "density": None,
    }[rule]
    if rule == "density":
        kernel = np.exp((cos - 1.0) / 0.1)
        want = (query.weights @ (kernel * cos)) / (query.weights @ kernel)
    got = multi_topic_scores(tied, query, rule=rule)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_nearest_terms_holds_a_few_blocks_not_the_term_side():
    """Once the memo is derived, a neighbour list is an fp32 pass and a
    few rescored rows; the library used to form all of ``U_k Σ_k`` per
    call (20.6 MB at 20 000 × 64)."""
    rng = np.random.default_rng(5)
    m, k = 20_000, 64
    vocab = Vocabulary(f"t{i}" for i in range(m))
    vocab.freeze()
    model = LSIModel(
        U=rng.standard_normal((m, k)), s=np.linspace(2.0, 1.0, k),
        V=rng.standard_normal((8, k)), vocabulary=vocab,
        doc_ids=[f"D{j}" for j in range(8)],
    )
    scaled_terms(model)
    tracemalloc.start()
    try:
        nearest_terms(model, "t7", top=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * ROW_BLOCK * k * 8, peak
