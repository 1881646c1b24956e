"""Every ranking in the library is the §3.1 cut of ``repro.serving.topk``.

"The z closest documents or all documents exceeding some cosine
threshold are returned" (§3.1).  Each ranked call site in ``core``,
``retrieval`` and ``apps`` is held here to the formula they all spelled
out by hand before the cut had one home: stable descending sort, then
the threshold filter, then ``[:top]`` — on score vectors full of ties,
with thresholds that land on a tied value, for ``top`` in
``{None, 0, 1, n, n + 3}``.  The scores are injected where the call site
computes them, so what is checked is the cut and the bookkeeping around
it (skipped rows, excluded examples, index → id).  The sites that scan a
model's row set (terms or documents) compute them in
``repro.serving.scan``'s two scorers, the fp32 pass and the fp64
rescoring, so both are injected there and the real cut runs.
"""

import numpy as np
import pytest

from repro.apps import crosslanguage, netlib, people, thesaurus
from repro.apps.crosslanguage import CrossLanguageRetrieval
from repro.apps.netlib import NetlibSearch
from repro.apps.spelling import SpellingCorrector
from repro.core import similarity
from repro.core.build import fit_lsi
from repro.core.similarity import rank_documents
from repro.corpus.crosslang import crosslang_collection
from repro.corpus.netlib_like import NetlibCatalogue
from repro.retrieval import composite, multitopic
from repro.retrieval.composite import CompositeQuery
from repro.retrieval.filtering import FilteringProfile, stream_filter
from repro.retrieval.keyword import KeywordRetrieval
from repro.retrieval.multitopic import MultiTopicQuery, multi_topic_search
from repro.serving import scan

WORDS = [
    "apple", "brick", "cloud", "dune", "ember", "frost", "grove", "harbor",
    "iris", "jade",
]
#: Ten documents over twelve terms, every term in at least two of them.
TEXTS = [
    f"{WORDS[j]} {WORDS[(j + 1) % 10]} {WORDS[(j + 5) % 10]} "
    + ("north" if j % 2 else "south")
    for j in range(10)
]
N = len(TEXTS)

SCORES = {
    "ties": np.array([0.5, 0.9, 0.5, 0.9, -0.2, 0.5, 0.0, 0.9, 0.5, 0.0]),
    "all-tied": np.full(N, 0.25),
}
#: The toy model's vocabulary: the ten words, "north" and "south".
M = N + 2
TOPS = (None, 0, 1, N, N + 3)
THRESHOLDS = (None, 0.5, 0.25, 0.95)


def reference(scores, top=None, threshold=None, skip=()):
    """The hand-written cut every call site used to carry."""
    order = np.argsort(-scores, kind="stable")
    out = [(int(j), float(scores[j])) for j in order if int(j) not in skip]
    if threshold is not None:
        out = [(j, c) for j, c in out if c >= threshold]
    if top is not None:
        out = out[:top]
    return out


@pytest.fixture(scope="module")
def toy():
    return fit_lsi(TEXTS, 3, doc_ids=[f"D{j}" for j in range(N)])


# Each site: (run(s, top, threshold, model, monkeypatch) -> (index, score)
# pairs, expected(s, top, threshold), tops, thresholds).
def _keyword(s, top, threshold, model, mp):
    kw = KeywordRetrieval.from_texts(TEXTS)
    mp.setattr(kw, "scores", lambda query: s)
    return kw.search("apple", top=top, threshold=threshold)


def _multitopic(s, top, threshold, model, mp):
    mp.setattr(multitopic, "multi_topic_scores", lambda *a, **kw: s)
    query = MultiTopicQuery(np.ones((1, model.k)))
    out = multi_topic_search(model, query, top=top, threshold=threshold)
    return [(model.doc_index(d), c) for d, c in out]


def _stream(s, top, threshold, model, mp):
    mp.setattr(FilteringProfile, "match", lambda self, vecs: s)
    profile = FilteringProfile.from_query(model, "apple")
    return stream_filter(profile, TEXTS, threshold=threshold)


def _terms(s):
    """A score per term of the toy model, ``s`` repeated to ``M``."""
    return np.resize(s, M)


def _scan(mp, *modules, s):
    """Every scanned row's fp32 and fp64 cosine is its entry of ``s``."""

    def approx(unit, Qs):
        assert unit.shape[0] == s.size
        return np.repeat(s[:, None], len(Qs), axis=1).astype(np.float32)

    def rescored(V, s_, norms, q, rows=None):
        return (s if rows is None else s[rows]).copy()

    for module in (scan, *modules):
        mp.setattr(module, "approx_cosines", approx)
    mp.setattr(scan, "row_cosines", rescored)


def _index_terms(s, top, threshold, model, mp):
    _scan(mp, s=_terms(s))
    out = thesaurus.suggest_index_terms(model, "apple", top=top)
    return [(model.vocabulary.id_of(t), c) for t, c in out]


def _crosslanguage(s, top, threshold, model, mp):
    _scan(mp, crosslanguage, s=s)
    engine = CrossLanguageRetrieval(model, 0, ["en"] * N)
    out = engine.search("apple", top=top)
    return [(model.doc_index(d), c) for d, c in out]


def _experts(s, top, threshold, model, mp):
    mp.setattr(people, "cosine_scores", lambda M, q: s[None, :])
    return people.find_experts(model, np.ones((N, model.k)), "apple", top=top)


def _nearest_terms(s, top, threshold, model, mp):
    _scan(mp, s=_terms(s))
    out = similarity.nearest_terms(model, model.vocabulary[3], top=top)
    return [(model.vocabulary.id_of(t), c) for t, c in out]


def _more_like(s, top, threshold, model, mp):
    _scan(mp, s=s)
    search = NetlibSearch(_catalogue(model), model)
    return [
        (model.doc_index(d), c) for d, c in search.more_like("D3", top=top)
    ]


def _catalogue(model):
    """Rows 0–6 are routines, rows 7–9 digest articles."""
    return NetlibCatalogue(
        names=model.doc_ids[:7], descriptions=TEXTS[:7], entry_family=[0] * 7,
        queries=[], query_family=[], digests=TEXTS[7:],
    )


def _fake_ranked_documents(s):
    return lambda model, qhat, *, threshold=None, top=None: reference(
        s, top, threshold
    )


def _fuzzy(s, top, threshold, model, mp):
    mp.setattr(netlib, "ranked_documents", _fake_ranked_documents(s))
    search = NetlibSearch(_catalogue(model), model)
    return [(model.doc_index(d), c) for d, c in search.fuzzy("apple", top=top)]


def _composite(s, top, threshold, model, mp):
    mp.setattr(composite, "ranked_documents", _fake_ranked_documents(s))
    query = (
        CompositeQuery(model)
        .add_document("D1")
        .add_document(5, weight=-0.5)
        .add_text("apple dune")
    )
    out = query.search(top=top, threshold=threshold)
    return [(model.doc_index(d), c) for d, c in out]


INT_TOPS = TOPS[1:]
SITES = {
    "KeywordRetrieval.search": (_keyword, reference, TOPS, THRESHOLDS),
    "multi_topic_search": (_multitopic, reference, TOPS, THRESHOLDS),
    "stream_filter": (_stream, reference, (None,), THRESHOLDS),
    "suggest_index_terms": (
        _index_terms,
        lambda s, top, th: reference(_terms(s), top, th),
        TOPS, (None,),
    ),
    "CrossLanguageRetrieval.search": (
        _crosslanguage, reference, TOPS, (None,)
    ),
    "find_experts": (_experts, reference, TOPS, (None,)),
    "nearest_terms": (
        _nearest_terms,
        lambda s, top, th: reference(_terms(s), top, th, skip={3}),
        INT_TOPS, (None,),
    ),
    "NetlibSearch.more_like": (
        _more_like,
        lambda s, top, th: reference(s, top, th, skip={3}),
        INT_TOPS, (None,),
    ),
    "NetlibSearch.fuzzy": (
        _fuzzy,
        lambda s, top, th: reference(s, top, th, skip={7, 8, 9}),
        INT_TOPS, (None,),
    ),
    "CompositeQuery.search": (
        _composite,
        lambda s, top, th: reference(s, top, th, skip={1}),
        TOPS, THRESHOLDS,
    ),
}


@pytest.mark.parametrize("scores", sorted(SCORES))
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_library_ranking_is_the_stable_sort_cut(
    site, scores, toy, monkeypatch
):
    run, expected, tops, thresholds = SITES[site]
    s = SCORES[scores]
    for top in tops:
        for threshold in thresholds:
            got = run(s, top, threshold, toy, monkeypatch)
            assert got == expected(s, top, threshold), (top, threshold)


def test_spelling_suggestions_are_the_ranked_prefix():
    corrector = SpellingCorrector(
        ["graph", "grape", "grasp", "trees", "tress", "minor", "manor"], k=4
    )
    qhat = corrector._query_vector("grapf")
    ranked = rank_documents(corrector.model, qhat)
    for top in INT_TOPS:
        assert corrector.suggest("grapf", top=top) == ranked[:top]


# --------------------------------------------------------------------- #
# the two rankings that returned wrong answers
# --------------------------------------------------------------------- #
SIX = [
    "graph tree minor",
    "graph tree minor",
    "survey user interface",
    "system user response time",
    "trees graph paths survey",
    "human interface computer system",
]


def test_query_by_example_excludes_the_example_alone():
    """D0 and D1 share a text, so their ``V`` rows are equal: excluding
    D0 by its row used to drop D1 too, and a text component equal to a
    document's row dropped that document."""
    model = fit_lsi(SIX, 3, doc_ids=[f"D{j}" for j in range(6)])
    example = CompositeQuery(model).add_document("D0")
    assert sorted(d for d, _ in example.search()) == [
        "D1", "D2", "D3", "D4", "D5"
    ]
    kept = [d for d, _ in example.search(exclude_examples=False)]
    assert kept[:2] in (["D0", "D1"], ["D1", "D0"])
    by_text = [d for d, _ in CompositeQuery(model).add_text(SIX[3]).search()]
    assert sorted(by_text) == [f"D{j}" for j in range(6)]
    negative = CompositeQuery(model).add_document("D0").add_document(
        "D2", weight=-1.0
    )
    assert "D2" in [d for d, _ in negative.search()]


def test_a_language_restricted_search_returns_that_language_only():
    corpus = crosslang_collection()
    engine = CrossLanguageRetrieval.train(corpus, 10)
    french = engine.search(corpus.english[0], language="fr", top=33)
    assert len(french) == len(corpus.french)
    assert all(d.startswith("fr") for d, _ in french)
    assert all(np.isfinite(c) for _, c in french)
    # The restricted ranking is the unrestricted one with the English
    # documents left out.
    both = engine.search(corpus.english[0], top=None)
    assert [d for d, _ in french] == [d for d, _ in both if d.startswith("fr")]
