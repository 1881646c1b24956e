"""Regression tests: every example script runs cleanly end to end.

Examples are user-facing documentation; a broken one is a broken
deliverable.  Each runs in-process (runpy) with stdout captured, so
failures surface the real traceback.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_directory_is_populated():
    assert len(EXAMPLES) >= 3  # the deliverable floor
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script, capsys, monkeypatch, tmp_path):
    # quickstart writes to /tmp; keep examples honest but redirect cwd.
    monkeypatch.chdir(tmp_path)
    path = EXAMPLES_DIR / script
    saved_argv = sys.argv
    try:
        sys.argv = [str(path)]
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved_argv
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_readme_quickstart_prints_what_its_comment_says(capsys):
    """README's Quickstart block runs, and its ``# → …`` comment is its
    output: the ids and rounded cosines, in ranked order."""
    readme = (EXAMPLES_DIR.parent / "README.md").read_text()
    section = readme.split("## Quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md#quickstart", "exec"), {})
    printed = capsys.readouterr().out.strip().splitlines()
    claimed = block.split("# →", 1)[1].splitlines()[0].split(",")
    assert printed == [entry.strip() for entry in claimed]
