"""CLI observability: the ``stats`` command, the cross-process state
file, and golden-output smoke tests for ``info`` / ``terms``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.export import SCHEMA
from repro.obs.metrics import registry
from repro.obs.tracing import enable_tracing, tracing_enabled
from tests.test_obs import clear_spans


@pytest.fixture(autouse=True)
def _clean_obs():
    """Isolate the process-global registry/ring per test (the CLI runs
    in-process here)."""
    registry.reset()
    clear_spans()
    enable_tracing(False)
    yield
    registry.reset()
    clear_spans()
    enable_tracing(False)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "docs.txt"
    path.write_text(
        "study of depressed patients after discharge\n"
        "culture of organisms in vaginal discharge of patients\n"
        "fast rise of cerebral oxygen pressure in rats\n"
        "fast cell generation in the eye of rats\n"
        "oestrogen induced behaviour change in depressed rats\n"
        "blood pressure measurement in elderly patients\n"
    )
    return path


def _fresh_process():
    """Simulate a new CLI process: registry and span ring start empty
    (the state *file* is what carries data across)."""
    registry.reset()
    clear_spans()


def _run(argv, capsys):
    code = cli_main(argv)
    return code, capsys.readouterr().out


def test_stats_shows_index_and_query_metrics(tmp_path, corpus_file, capsys):
    """After an index + query run, ``repro stats`` reports nonzero
    search latency histograms, serving counters, and
    Lanczos matvec/flop gauges — across separate 'processes'."""
    db = tmp_path / "db"
    code, _ = _run(
        ["index", str(corpus_file), str(db), "-k", "3",
         "--scheme", "raw_none", "--svd-method", "lanczos"], capsys,
    )
    assert code == 0

    _fresh_process()
    code, _ = _run(["query", str(db), "rats", "fast", "-n", "2"], capsys)
    assert code == 0

    _fresh_process()
    code, out = _run(["stats"], capsys)
    assert code == 0
    assert "lsi.search" in out
    assert "serving.queries_served" in out
    assert "lanczos.matvecs" in out
    assert "lanczos.flops" in out
    assert "lsi.fit.svd" in out  # spans survived the process boundary


def test_stats_json_blob(tmp_path, corpus_file, capsys):
    db = tmp_path / "db"
    _run(["index", str(corpus_file), str(db), "-k", "2",
          "--svd-method", "lanczos"], capsys)
    _fresh_process()
    code, out = _run(["stats", "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["schema"] == SCHEMA
    assert blob["metrics"]["gauges"]["lanczos.matvecs"] > 0
    hist = blob["metrics"]["histograms"]["lsi.fit"]
    assert hist["count"] == 1 and hist["sum"] > 0
    assert any(s["name"] == "lsi.fit.svd" for s in blob["spans"])


def test_counters_accumulate_across_runs(tmp_path, corpus_file, capsys):
    db = tmp_path / "db"
    _run(["index", str(corpus_file), str(db), "-k", "2"], capsys)
    for _ in range(3):
        _fresh_process()
        _run(["query", str(db), "rats"], capsys)
    _fresh_process()
    _, out = _run(["stats", "--json"], capsys)
    blob = json.loads(out)
    assert blob["metrics"]["counters"]["serving.queries_served"] == 3
    assert blob["metrics"]["histograms"]["lsi.search"]["count"] == 3


def test_stats_reset_removes_state(tmp_path, corpus_file, capsys,
                                   monkeypatch):
    state = tmp_path / "custom_state.json"
    monkeypatch.setenv("REPRO_OBS_STATE", str(state))
    db = tmp_path / "db"
    _run(["index", str(corpus_file), str(db), "-k", "2"], capsys)
    assert state.exists()
    _fresh_process()
    code, out = _run(["stats", "--reset"], capsys)
    assert code == 0 and "reset" in out
    assert not state.exists()
    _fresh_process()
    _, out = _run(["stats"], capsys)
    assert "(no metrics recorded)" in out


def test_obs_state_flag_overrides_env(tmp_path, corpus_file, capsys):
    state = tmp_path / "elsewhere.json"
    db = tmp_path / "db"
    _run(["--obs-state", str(state), "index", str(corpus_file),
          str(db), "-k", "2"], capsys)
    assert state.exists()
    _fresh_process()
    _, out = _run(["--obs-state", str(state), "stats"], capsys)
    assert "lsi.fit" in out


def test_no_obs_skips_state_write(tmp_path, corpus_file, capsys,
                                  monkeypatch):
    state = tmp_path / "never.json"
    monkeypatch.setenv("REPRO_OBS_STATE", str(state))
    db = tmp_path / "db"
    code, _ = _run(["--no-obs", "index", str(corpus_file), str(db),
                    "-k", "2"], capsys)
    assert code == 0
    assert not state.exists()


def test_cli_restores_tracing_state(tmp_path, corpus_file, capsys):
    assert not tracing_enabled()
    db = tmp_path / "db"
    _run(["index", str(corpus_file), str(db), "-k", "2"], capsys)
    assert not tracing_enabled()  # main() restored the default


def test_failed_command_writes_no_state(tmp_path, capsys, monkeypatch):
    state = tmp_path / "fail.json"
    monkeypatch.setenv("REPRO_OBS_STATE", str(state))
    code = cli_main(["index", str(tmp_path / "missing"),
                     str(tmp_path / "x")])
    capsys.readouterr()
    assert code == 1
    assert not state.exists()


# --------------------------------------------------------------------- #
# golden-output smoke tests for the read-only commands
# --------------------------------------------------------------------- #
def test_info_golden_output(tmp_path, corpus_file, capsys):
    db = tmp_path / "db"
    _run(["index", str(corpus_file), str(db), "-k", "3",
          "--scheme", "raw_none"], capsys)
    code, out = _run(["info", str(db)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "documents : 6"
    assert lines[2] == "factors   : 3"
    assert "weighting : raw×none" in out
    assert "provenance: svd" in out
    assert "sigma" in out


def test_terms_golden_output(tmp_path, corpus_file, capsys):
    db = tmp_path / "db"
    _run(["index", str(corpus_file), str(db), "-k", "3",
          "--scheme", "raw_none"], capsys)
    code, out = _run(["terms", str(db), "rats", "-n", "3"], capsys)
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 3
    # Each row is "<cosine>  <term>"; the query term itself is skipped,
    # results come best-first within [-1, 1].
    terms = [r[1] for r in rows]
    assert "rats" not in terms
    cosines = [float(r[0]) for r in rows]
    assert cosines == sorted(cosines, reverse=True)
    assert all(-1.0001 <= c <= 1.0001 for c in cosines)
    # The neighbours come from the rat documents' vocabulary.
    rat_vocab = {"fast", "rise", "cerebral", "oxygen", "pressure", "cell",
                 "generation", "eye", "oestrogen", "induced", "behaviour",
                 "change", "depressed"}
    assert set(terms) <= rat_vocab
