"""Tests for composite queries, the NETLIB app, and the CLI."""

import numpy as np
import pytest

from repro.apps.netlib import NetlibSearch
from repro.cli import main as cli_main
from repro.core.query import project_query
from repro.core.similarity import cosine_similarities
from repro.corpus.netlib_like import netlib_catalogue
from repro.errors import ShapeError
from repro.retrieval.composite import CompositeQuery


# --------------------------------------------------------------------- #
# composite queries
# --------------------------------------------------------------------- #
def test_text_only_composite_matches_plain_query(med_model):
    q = CompositeQuery(med_model).add_text("age blood abnormalities")
    assert np.allclose(
        q.vector(), project_query(med_model, "age blood abnormalities")
    )


def test_document_component_query_by_example(med_model):
    q = CompositeQuery(med_model).add_document("M13")
    results = q.search(top=2)
    ids = [d for d, _ in results]
    assert "M13" not in ids        # example excluded
    assert "M14" in ids            # its cluster mate found


def test_example_not_excluded_when_disabled(med_model):
    q = CompositeQuery(med_model).add_document("M13")
    ids = [d for d, _ in q.search(top=3, exclude_examples=False)]
    assert "M13" in ids


def test_mixed_components_weighted(med_model):
    # heavy weight on the rats document dominates the text component
    q = (
        CompositeQuery(med_model)
        .add_text("oestrogen", weight=0.1)
        .add_document("M14", weight=5.0)
    )
    top = q.search(top=1)[0][0]
    assert top in ("M13", "M10", "M12")  # the fast/rats region


def test_subtract_document_moves_away(med_model):
    base = CompositeQuery(med_model).add_text("depressed patients")
    with_neg = (
        CompositeQuery(med_model)
        .add_text("depressed patients")
        .add_document("M1", weight=-0.8)
    )
    m1 = med_model.doc_index("M1")
    before = cosine_similarities(med_model, base.vector())[m1]
    after = cosine_similarities(med_model, with_neg.vector())[m1]
    assert after < before


def test_composite_validation(med_model):
    with pytest.raises(ShapeError):
        CompositeQuery(med_model).vector()
    with pytest.raises(ShapeError):
        CompositeQuery(med_model).add_document(999)


# --------------------------------------------------------------------- #
# NETLIB fuzzy search
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def netlib():
    cat = netlib_catalogue(seed=5)
    return cat, NetlibSearch.build(cat, k=16, seed=0)


def test_catalogue_structure(netlib):
    cat, _ = netlib
    assert len(cat.names) == len(cat.descriptions) == len(cat.entry_family)
    assert len(set(cat.names)) == len(cat.names)
    col = cat.collection()
    assert col.n_documents == len(cat.names)


def test_fuzzy_search_finds_family(netlib):
    cat, search = netlib
    hits = 0
    for q, fam in zip(cat.queries, cat.query_family):
        top = search.fuzzy(q, top=3)
        families = {
            cat.entry_family[cat.names.index(name)] for name, _ in top
        }
        hits += fam in families
    assert hits / len(cat.queries) > 0.7


def test_exact_lookup_fails_on_task_phrasing(netlib):
    cat, search = netlib
    assert search.exact("regression") == []      # tasks aren't names
    assert len(search.exact("gesvd")) == 5       # names still work


def test_more_like_returns_same_family(netlib):
    cat, search = netlib
    name = cat.names[0]
    fam = cat.entry_family[0]
    similar = search.more_like(name, top=3)
    assert all(n != name for n, _ in similar)
    same_fam = sum(
        1 for n, _ in similar
        if cat.entry_family[cat.names.index(n)] == fam
    )
    assert same_fam >= 2


def test_build_rejects_empty_catalogue():
    from repro.corpus.netlib_like import NetlibCatalogue

    with pytest.raises(ShapeError):
        NetlibSearch.build(NetlibCatalogue([], [], [], [], []))


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text(
        "study of depressed patients after discharge\n"
        "culture of organisms in vaginal discharge of patients\n"
        "fast rise of cerebral oxygen pressure in rats\n"
        "fast cell generation in the eye of rats\n"
    )
    return path


def _run(argv, tmp_path):
    out_file = tmp_path / "out.txt"
    with open(out_file, "w") as fh:
        code = cli_main(argv, out=fh)
    return code, out_file.read_text()


def test_cli_index_query_terms(tmp_path, corpus_file):
    db = tmp_path / "db"
    code, out = _run(
        ["index", str(corpus_file), str(db), "-k", "3",
         "--scheme", "raw_none"], tmp_path,
    )
    assert code == 0 and "indexed 4 documents" in out
    code, out = _run(["query", str(db), "rats", "fast", "-n", "2"], tmp_path)
    assert code == 0
    assert "L3" in out or "L4" in out
    code, out = _run(["terms", str(db), "rats", "-n", "2"], tmp_path)
    assert code == 0 and out.strip()
    code, out = _run(["info", str(db)], tmp_path)
    assert "documents : 4" in out and "raw×none" in out


def test_cli_add_fold_and_update(tmp_path):
    """``repro add`` goes through the store: the manager folds a small
    batch in (Eq. 7) and consolidates by SVD-updating (Eq. 10) once the
    folded fraction passes its budget — each add flushed, so the next
    command reads it."""
    from repro.store.recovery import open_checkpoint
    from tests.test_cli_toolbox import MORE_LINES

    corpus = tmp_path / "big.txt"
    corpus.write_text(MORE_LINES)
    db = tmp_path / "db"
    _run(["index", str(corpus), str(db), "-k", "3"], tmp_path)
    new = tmp_path / "new.txt"
    new.write_text("depressed patients feel pressure\n")
    code, out = _run(["add", str(db), str(new)], tmp_path)
    assert code == 0 and out.startswith("fold-in: +1 documents")
    assert open_checkpoint(db).model().n_documents == 13
    new.write_text("depressed rats\nfast patients\n")
    code, out = _run(["add", str(db), str(new)], tmp_path)
    assert code == 0 and out.startswith("svd-update: +2 documents")
    assert "now 15 documents, provenance svd-update" in out
    assert open_checkpoint(db).model().provenance == "svd-update"


def test_cli_index_directory(tmp_path):
    docdir = tmp_path / "corpus"
    docdir.mkdir()
    (docdir / "a.txt").write_text("rats fast generation")
    (docdir / "b.txt").write_text("patients depressed culture")
    db = tmp_path / "dir"
    code, out = _run(["index", str(docdir), str(db), "-k", "2"], tmp_path)
    assert code == 0 and "indexed 2 documents" in out
    code, out = _run(["query", str(db), "rats"], tmp_path)
    assert code == 0 and "a" in out


def test_cli_errors_return_nonzero(tmp_path):
    code = cli_main(
        ["index", str(tmp_path / "missing"), str(tmp_path / "x")],
        out=open(tmp_path / "o.txt", "w"),
    )
    assert code == 1
