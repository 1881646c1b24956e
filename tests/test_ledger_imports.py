"""The benchmark's imports of the package resolve.

``ledger/`` (the perf ledger ``BENCHMARK.json`` runs) imports names such
as ``merge_topk``, ``open_latest_model`` and ``TenantQuotas`` from fixed
module paths, and may only change in a change of its own.  A refactor
that moves or deletes one of them breaks the benchmark; this test finds
it here instead, by reading the ledger's ``from repro… import name``
statements (``ast``, without importing ``ledger``) and resolving each.
"""

import ast
import importlib
import pathlib

LEDGER = pathlib.Path(__file__).resolve().parent.parent / "ledger"


def _ledger_imports() -> list[tuple[str, str, str]]:
    """``(file, module, name)`` for every ``from repro… import name``."""
    found = []
    for path in sorted(LEDGER.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "repro"
            ):
                found += [(path.name, node.module, a.name) for a in node.names]
    return found


def test_every_ledger_import_of_the_package_resolves():
    imports = _ledger_imports()
    assert imports, f"no `from repro... import` found under {LEDGER}"
    missing = []
    for filename, module, name in imports:
        try:
            resolved = hasattr(importlib.import_module(module), name)
        except ImportError:
            resolved = False
        if not resolved:
            missing.append(f"{filename}: from {module} import {name}")
    assert not missing, "ledger imports that no longer resolve:\n" + "\n".join(
        missing
    )
