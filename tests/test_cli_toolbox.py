"""The toolbox over its one on-disk format: ``repro index`` writes a
store, ``repro add`` grows it through the WAL, the lock and the
manager's doc-id checks, and ``query`` / ``info`` / ``terms`` read its
newest checkpoint."""

import io

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.cli.toolbox import read_documents
from repro.core.build import fit_lsi
from repro.corpus.med import MED_TOPICS
from repro.store.durable import DurableIndexStore
from repro.store.recovery import open_checkpoint
from repro.text.parser import ParsingRules

LINES = (
    "study of depressed patients after discharge\n"
    "culture of organisms in vaginal discharge of patients\n"
    "fast rise of cerebral oxygen pressure in rats\n"
    "fast cell generation in the eye of rats\n"
    "rats oestrogen induced behaviour change\n"
)
#: Twelve documents: one more added stays within the manager's fold-in
#: budget (1/12 < 0.1), two more consolidate it.
MORE_LINES = "".join(
    f"fast rats patients {i} depressed oxygen pressure cell "
    f"generation discharge doc{i % 4}\n"
    for i in range(1, 13)
)


def _run(argv):
    """``(exit code, stdout)``; an argparse usage error exits 2."""
    out = io.StringIO()
    try:
        code = cli_main(["--no-obs", *argv], out=out)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue()


def _files(root):
    """Every file of a store but the lockfile, whose generation each
    writer open bumps, by relative path."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name != "LOCK"
    }


@pytest.fixture
def line_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(LINES)
    return path


@pytest.fixture
def db(tmp_path, line_file):
    path = tmp_path / "db"
    assert _run(["index", str(line_file), str(path), "-k", "3"])[0] == 0
    return path


def _med_dir(tmp_path):
    root = tmp_path / "med"
    root.mkdir()
    for name, text in MED_TOPICS.items():
        (root / f"{name}.txt").write_text(text)
    return root


@pytest.mark.parametrize(
    "corpus, flags",
    [
        ("med", ["-k", "2", "--scheme", "raw_none", "--min-doc-freq", "2",
                 "--svd-method", "dense"]),
        ("lines", ["-k", "3", "--svd-method", "lanczos"]),
    ],
)
def test_index_writes_fit_lsi_bit_for_bit(tmp_path, line_file, corpus, flags):
    source = _med_dir(tmp_path) if corpus == "med" else line_file
    db = tmp_path / "db"
    code, out = _run(["index", str(source), str(db), *flags])
    assert code == 0 and out.startswith("indexed ")
    opts = dict(zip(flags[::2], flags[1::2]))
    docs, ids = read_documents(source)
    want = fit_lsi(
        docs, int(opts["-k"]),
        scheme=opts.get("--scheme", "log_entropy"),
        rules=ParsingRules(min_doc_freq=int(opts.get("--min-doc-freq", 1))),
        doc_ids=ids,
        method=opts["--svd-method"],
    )
    got = open_checkpoint(db).model()
    for name in ("U", "s", "V", "global_weights"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.vocabulary.to_list() == want.vocabulary.to_list()
    assert got.doc_ids == want.doc_ids
    assert got.scheme == want.scheme
    assert got.provenance == want.provenance == "svd"
    # The quantizer is trained once, when the store is written.
    assert open_checkpoint(db).ann() is not None


def test_add_line_file_mints_fresh_ids(tmp_path, db):
    """A second one-per-line file numbers its lines L1.. again; the
    manager mints ids after the held ones instead of repeating them."""
    new = tmp_path / "new.txt"
    new.write_text("depressed rats\nfast patients\n")
    assert _run(["add", str(db), str(new)])[0] == 0
    model = open_checkpoint(db).model()
    assert model.n_documents == 7
    assert len(set(model.doc_ids)) == model.n_documents
    code, out = _run(["query", str(db), "rats", "fast"])
    ranked = [line.split()[1] for line in out.splitlines()]
    assert code == 0 and len(ranked) == len(set(ranked)) == 7


def test_add_directory_with_held_stems_is_refused(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "a.txt").write_text("rats fast generation")
    (docs / "b.txt").write_text("patients depressed culture")
    db = tmp_path / "db"
    assert _run(["index", str(docs), str(db), "-k", "2"])[0] == 0
    before = _files(db)
    more = tmp_path / "more"
    more.mkdir()
    (more / "a.txt").write_text("rats again")
    (more / "c.txt").write_text("new culture")
    code, out = _run(["add", str(db), str(more)])
    assert code == 1 and out == ""
    assert _files(db) == before  # nothing reached the WAL


def test_acked_add_survives_reopen(tmp_path, db):
    new = tmp_path / "new.txt"
    new.write_text("oxygen pressure oestrogen oxygen pressure\n")
    code, out = _run(["add", str(db), str(new)])
    assert code == 0 and "now 6 documents" in out
    assert open_checkpoint(db).model().doc_ids[-1] == "D6"
    store = DurableIndexStore.open(db)
    try:
        assert store.manager.model.doc_ids[-1] == "D6"
        assert store.last_recovery.replayed_records == 0  # add flushed
    finally:
        store.close()
    code, out = _run(["query", str(db), "oxygen", "pressure"])
    assert code == 0 and "D6" in [line.split()[1] for line in out.splitlines()]


def test_add_against_a_held_store_is_refused(tmp_path, db):
    """A live writer (``serve --data-dir`` holds the same lock) keeps
    ``repro add`` out, and the store is unchanged."""
    new = tmp_path / "new.txt"
    new.write_text("depressed rats\n")
    held = DurableIndexStore.open(db)
    try:
        before = _files(db)
        code, out = _run(["add", str(db), str(new)])
        assert code == 1 and out == ""
        assert _files(db) == before
    finally:
        held.close()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["query", "{db}", "rats", "-n", "-2"], 1),
        (["query", "{db}", "rats", "--threshold", "nan"], 1),
        (["terms", "{db}", "rats", "-n", "-1"], 1),
        (["index", "{corpus}", "{out}", "-k", "0"], 2),
        (["index", "{corpus}", "{out}", "-k", "-4"], 2),
    ],
)
def test_search_values_http_refuses_are_refused(
    tmp_path, line_file, db, argv, code
):
    """The toolbox holds a search to the rule ``/search`` does
    (``check_search_args``), and ``-k`` to ``>= 1``."""
    paths = {"db": db, "corpus": line_file, "out": tmp_path / "out"}
    got, out = _run([arg.format(**paths) for arg in argv])
    assert (got, out) == (code, "")
    assert not (tmp_path / "out").exists()


def test_a_binary_source_is_a_usage_error_not_a_traceback(tmp_path):
    """An old ``.npz`` database (or any binary file) given as a document
    source is refused by name."""
    old = tmp_path / "db.npz"
    old.write_bytes(b"PK\x03\x04\xb2\xff binary")
    code, out = _run(["index", str(old), str(tmp_path / "out")])
    assert (code, out) == (1, "")
    assert not (tmp_path / "out").exists()


def test_index_svd_method_gkl_is_a_usage_error(tmp_path, line_file, capsys):
    """Lanczos is the one iterative solver: ``gkl`` is no longer a choice
    of ``--svd-method`` (exit 2), and nothing is written."""
    out = tmp_path / "db"
    code, _ = _run(["index", str(line_file), str(out), "--svd-method", "gkl"])
    assert code == 2
    assert "invalid choice: 'gkl'" in capsys.readouterr().err
    assert not out.exists()


def test_index_over_a_regular_file_is_refused(tmp_path, line_file):
    """An output path that is a file, not a directory, is a typed error
    (exit 1), and the file is left as it was."""
    target = tmp_path / "db.npz"
    target.write_bytes(b"old bytes")
    code, out = _run(["index", str(line_file), str(target)])
    assert (code, out) == (1, "")
    assert target.read_bytes() == b"old bytes"


@pytest.mark.parametrize(
    "command",
    [
        ["serve", "{source}", "--data-dir", "{target}", "-k", "3"],
        ["cluster", "serve", "--writable", "--data-dir", "{target}"],
    ],
    ids=["serve", "cluster-serve-writable"],
)
def test_a_data_dir_that_is_a_regular_file_is_refused(
    tmp_path, line_file, capsys, command
):
    """A ``--data-dir`` that is a file is a typed error naming it
    (exit 1, file untouched), before anything binds or spawns."""
    target = tmp_path / "afile"
    target.write_bytes(b"old bytes")
    argv = [a.format(source=line_file, target=target) for a in command]
    code, out = _run([*argv, "--port", "0"])
    assert (code, out) == (1, "")
    assert f"{target} is not a directory" in capsys.readouterr().err
    assert target.read_bytes() == b"old bytes"


def test_failed_index_can_be_retried(tmp_path, line_file, monkeypatch):
    """A write error during ``repro index`` leaves no store state behind,
    so running it again to the same path succeeds."""
    import repro.store.checkpoint as checkpoint

    def boom(*args, **kwargs):
        raise OSError("disk full")

    path = tmp_path / "db"
    monkeypatch.setattr(checkpoint.np, "save", boom)
    with pytest.raises(OSError):
        _run(["index", str(line_file), str(path), "-k", "3"])
    assert not path.exists()
    monkeypatch.undo()
    code, out = _run(["index", str(line_file), str(path), "-k", "3"])
    assert code == 0 and "indexed 5 documents" in out
    assert open_checkpoint(path).model().doc_ids == [f"L{i}" for i in range(1, 6)]
