"""The evidence rule, enforced rather than remembered.

Every number the docs give for a served path has one source: a
``BENCHMARK.json`` workload and metric (cited ``workload:metric``), or a
``BENCH_<name>.json`` at the repository root — and such a file is only
ever a full-size, machine-stamped run (``benchmarks/conftest.py``).  A
doc, or the CI workflow, may not name a bench, an evidence file or a
ledger metric that does not exist — nor a module: a backticked
``pkg/mod.py`` or ``pkg.mod`` must be a file under ``src/repro/``.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
STAMP_KEYS = {
    "git_sha", "cpu_model", "usable_cores", "blas", "numpy", "python",
    "repeats",
}
EVIDENCE = sorted(p.name for p in ROOT.glob("BENCH_*.json"))
SRC = ROOT / "src" / "repro"
PACKAGES = {p.parent.name for p in SRC.glob("*/__init__.py")}

_benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in _benchmark["workloads"]}
METRICS = {
    m["name"] for m in _benchmark["end_to_end"] + _benchmark["per_layer"]
}


def test_the_committed_evidence_is_found():
    assert EVIDENCE and WORKLOADS and METRICS


@pytest.mark.parametrize("name", EVIDENCE)
def test_root_evidence_is_full_size_and_stamped(name):
    blob = json.loads((ROOT / name).read_text())
    assert blob.get("smoke") is False, f"{name} is not a full-size run"
    assert STAMP_KEYS <= blob.keys(), sorted(STAMP_KEYS - blob.keys())
    bench = name.removeprefix("BENCH_").removesuffix(".json")
    assert (ROOT / "benchmarks" / f"bench_{bench}.py").exists(), (
        f"{name} has no bench that writes it"
    )


@pytest.mark.parametrize("doc", DOCS)
def test_docs_cite_only_evidence_that_exists(doc):
    text = (ROOT / doc).read_text()
    missing = []
    # ``BENCH_obs_*`` are per-run registry dumps CI uploads, never committed.
    for name in set(re.findall(r"\bBENCH_(?!obs_)\w+\.json", text)):
        if name not in EVIDENCE:
            missing.append(name)
    for name in set(
        re.findall(r"\b(?:bench_\w+|\w+_smoke|obs_export)\.py\b", text)
    ):
        if not (ROOT / "benchmarks" / name).exists():
            missing.append(f"benchmarks/{name}")
    for workload, metric in set(re.findall(r"`(\w+):(\w+[_.][\w.]+)`", text)):
        if workload not in WORKLOADS or metric not in METRICS:
            missing.append(f"{workload}:{metric}")
    for pkg, mod in set(re.findall(r"`(?:src/)?(?:repro/)?(\w+)/(\w+)\.py", text)):
        if pkg in PACKAGES and not (SRC / pkg / f"{mod}.py").exists():
            missing.append(f"{pkg}/{mod}.py")
    # ``pkg.name`` is a module, or a name the package exports or reports
    # (``store.open_checkpoint``, the ``store.wal_records`` gauge).
    for pkg, name in set(re.findall(r"`(?:repro\.)?(\w+)\.(\w+)`", text)):
        if pkg in PACKAGES and not (SRC / pkg / f"{name}.py").exists():
            quoted = re.compile(rf'"(?:{pkg}\.)?{name}"')
            if not any(quoted.search(p.read_text()) for p in (SRC / pkg).glob("*.py")):
                missing.append(f"{pkg}.{name}")
    assert not missing, f"{doc} cites what does not exist: {sorted(missing)}"


def test_ci_runs_only_benchmarks_that_exist():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    named = set(re.findall(r"benchmarks/(\w+\.py)", text))
    assert named
    missing = [n for n in named if not (ROOT / "benchmarks" / n).exists()]
    assert not missing, missing
