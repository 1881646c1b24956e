"""Every module earns its place — a check, not an audit.

An ``ast`` walk (nothing under ``repro`` is imported) from what a user
runs — ``python -m repro``, ``ledger/``, ``benchmarks/``, ``examples/``
— to every module under ``src/repro/``.  ``from pkg import name`` is
followed *through* ``pkg/__init__`` to the submodule that defines
``name``, so a package re-exporting a module does not make it used.
Tests are deliberately not roots: a module only its own tests reach goes
with them.
"""

import ast
import functools
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# module -> the numbered equation of PAPER.md it implements.  An entry is
# a debt: it must cite the paper and must still be unreachable.
EXEMPT = {
    "repro.weighting.correction": "Eq. 12",  # the Y_j Z_jᵀ blocks of W = A_k + Y_j Z_jᵀ
}


def module_table(src):
    """Dotted name -> file, a package named by its ``__init__``."""
    return {
        ".".join(p.relative_to(src).with_suffix("").parts).removesuffix(".__init__"): p
        for p in src.rglob("*.py")
    }


@functools.cache
def imports(path, module=None):
    """``(target module, imported name | None, bound name)`` for every
    import statement in ``path``; relative ones resolve against ``module``
    (the root scripts have none)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, None, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (module or not node.level):
            base = [node.module] if node.module else []
            if node.level:
                package = module.split(".")
                if path.name != "__init__.py":
                    package.pop()
                base = package[: len(package) - node.level + 1] + base
            found += [(".".join(base), a.name, a.asname or a.name) for a in node.names]
    return found


def defining_module(modules, module, name):
    """The module a ``from module import name`` really loads ``name`` from."""
    if f"{module}.{name}" in modules:
        return f"{module}.{name}"
    path = modules.get(module)
    if path is not None and path.name == "__init__.py":
        for origin, original, bound in imports(path, module):
            if original and bound == name:
                return defining_module(modules, origin, original)
    return module


def orphans(modules, entry, scripts):
    """Non-``__init__`` modules no import chain from the roots arrives at."""
    seen = {entry}
    todo = [(modules[entry], entry)] + [(p, None) for p in scripts]
    while todo:
        path, module = todo.pop()
        for target, name, _ in imports(path, module):
            if name not in (None, "*"):
                target = defining_module(modules, target, name)
            if target in modules and target not in seen:
                seen.add(target)
                todo.append((modules[target], target))
    return sorted(
        m for m, p in modules.items() if p.name != "__init__.py" and m not in seen
    )


def test_every_module_is_reachable_or_exempt_by_the_paper():
    scripts = [
        p for d in ("ledger", "benchmarks", "examples") for p in (ROOT / d).glob("*.py")
    ]
    unreached = orphans(module_table(ROOT / "src"), "repro.__main__", scripts)
    paper = (ROOT / "PAPER.md").read_text()
    for module, equation in EXEMPT.items():
        assert re.fullmatch(r"Eq\. \d+", equation) and equation in paper, module
        assert module in unreached, f"{module} is reached; drop its exemption"
    unexplained = [m for m in unreached if m not in EXEMPT]
    assert not unexplained, (
        "reachable from no CLI command, ledger, bench or example — wire it "
        f"or delete it with its tests: {unexplained}"
    )


def test_the_serving_tiers_import_downward_only():
    """``store < tenancy < server < cluster``: each tier builds on the
    ones before it, so no module imports a later tier — at module
    level, inside a function or under ``TYPE_CHECKING``."""
    tiers = ["repro.store", "repro.tenancy", "repro.server", "repro.cluster"]

    def tier(module):
        """Position of ``module``'s tier, or -1 outside the four."""
        return next(
            (i for i, t in enumerate(tiers)
             if module == t or module.startswith(t + ".")),
            -1,
        )

    found = [
        f"{module} imports {target}"
        for module, path in sorted(module_table(ROOT / "src").items())
        if tier(module) >= 0
        for target, _, _ in imports(path, module)
        if tier(target) > tier(module)
    ]
    assert not found, found


def test_the_cli_loads_no_serving_tier_until_a_command_runs():
    """``import repro.cli`` (every ``python -m repro`` start) loads no
    module of the four serving tiers: the commands import them."""
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.cli; print(sorted(m for m in sys.modules if "
         "m.split('.')[:2] in (['repro', 'store'], ['repro', 'tenancy'], "
         "['repro', 'server'], ['repro', 'cluster'])))"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]", done.stdout


def test_a_reexport_is_not_a_use(tmp_path):
    """The walk on a toy package: ``used`` is reached through the package,
    through a relative import and through an aliased re-export; ``spare``
    is imported by ``pkg/__init__`` alone and by nothing anyone runs."""
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text("from pkg.sub import helper as h\n")
    (pkg / "sub" / "__init__.py").write_text(
        "from .used import f as helper\nfrom pkg.sub.spare import g\n"
    )
    (pkg / "sub" / "used.py").write_text("from . import deep\nf = 1\n")
    (pkg / "sub" / "deep.py").write_text("")
    (pkg / "sub" / "spare.py").write_text("g = 2\n")
    modules = module_table(tmp_path)
    assert orphans(modules, "pkg.__main__", []) == ["pkg.sub.spare"]
    script = tmp_path / "bench.py"
    script.write_text("def test():\n    from pkg.sub import g\n")
    assert orphans(modules, "pkg.__main__", [script]) == []
