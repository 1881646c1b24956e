"""Shared fixtures and report helpers for the benchmark suite.

Every bench both *times* its core computation (pytest-benchmark fixture)
and *prints* the rows/series of the paper artifact it regenerates, so a
``pytest benchmarks/ --benchmark-only -s`` run shows the reproduction
next to the timing table.  Shape claims (who wins, direction of effects)
are asserted, so a silent regression fails the suite rather than merely
changing printed numbers.

Sizes: ``BENCH_SMOKE=1`` shrinks the benches that have two sizes.  A
smoke run checks parity and recall only — wall-clock floors are asserted
at full size, where the ratio means something — and writes nothing at
the repository root: a committed ``BENCH_<name>.json`` is always a
full-size, machine-stamped run (the :func:`evidence` fixture).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from repro.core.build import fit_lsi_from_tdm
from repro.corpus.med import med_matrix
from repro.corpus.synthetic import SyntheticSpec, topic_collection


ROOT = pathlib.Path(__file__).resolve().parent.parent
SMOKE = bool(os.environ.get("BENCH_SMOKE"))


def summarize(values) -> dict:
    """Median and interquartile range of one measurement's repeats."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {
        "median": float(median),
        "iqr": float(q3 - q1),
        "runs": [float(v) for v in values],
    }


def machine_stamp() -> dict:
    """What a reader needs to place a committed number: commit
    (``-dirty`` when the tree had uncommitted edits), CPU, cores this
    process may use, BLAS, numpy, python."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "usable_cores": cores,
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


@pytest.fixture(scope="module")
def evidence(request):
    """The module's results, committed as ``BENCH_<name>.json``.

    Tests of ``bench_<name>.py`` put each phase's results in the dict
    *after* asserting its floor; when the module is done, a full-size
    run writes them to the repository root with ``repeats`` and the
    machine stamp.  A smoke run writes nothing.
    """
    results: dict = {}
    yield results
    if SMOKE or not results:
        return
    name = request.module.__name__.removeprefix("bench_")
    blob = {**results, **machine_stamp(), "smoke": False}
    blob.setdefault("repeats", 1)
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def emit(title: str, lines) -> None:
    """Print a labelled block to real stdout (visible under -s)."""
    print(f"\n=== {title} ===", file=sys.stderr)
    for line in lines:
        print(line, file=sys.stderr)


@pytest.fixture(scope="session")
def med_tdm():
    return med_matrix()


@pytest.fixture(scope="session")
def med_model(med_tdm):
    return fit_lsi_from_tdm(med_tdm, 2)


@pytest.fixture(scope="session")
def synonymy_collection():
    """The §5.1 evaluation collection: short queries, strong synonymy."""
    return topic_collection(
        SyntheticSpec(
            n_topics=8,
            docs_per_topic=20,
            doc_length=40,
            concepts_per_topic=15,
            synonyms_per_concept=4,
            queries_per_topic=3,
            query_length=2,
            query_synonym_shift=0.9,
            polysemy=0.25,
            background_vocab=40,
            background_rate=0.25,
        ),
        seed=7,
        name="synthetic-MED-like",
    )
