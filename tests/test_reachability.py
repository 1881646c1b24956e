"""Every module and every definition earns its place — a check, not an audit.

One ``ast`` walk (nothing under ``repro`` is imported) from what a user
runs — ``python -m repro``, ``ledger/``, ``benchmarks/``, ``examples/``
— decides which modules under ``src/repro/`` are reached and which
definitions inside them are live.  A *definition* is a top-level
function or class, or a method or property (not a dunder) of such a
class.  Live code is a root's whole file, the module-level statements of
a reached module, and the body of a live definition, to a fixed point.
In live code:

* a top-level name is used through a bare name, an import or
  ``module.name``; ``from pkg import name`` is followed *through*
  ``pkg/__init__`` to the module that defines ``name``;
* a method is used only through an attribute access (``x.name``) or a
  ``getattr`` string, so a local variable of the same name keeps
  nothing alive;
* a method that overrides one of a base class outside ``repro`` is used:
  the runtime calls it (``socketserver.BaseRequestHandler.handle``);
* a package ``__init__``'s imports (its re-exports) and ``__all__``
  entries are not uses.

Tests are deliberately not roots: a module or definition only its own
tests reach goes with them.
"""

import ast
import builtins
import functools
import importlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# definition -> the item of PAPER.md it implements.  An entry is a debt:
# it must cite the paper and must still be unreached from the roots.  Its
# body counts as live, so what it alone calls stays too.
EXEMPT_DEFINITIONS = {
    "repro.updating.folding.fold_in_terms": "Eq. 8",  # terms folded into U_k
    "repro.updating.svd_update.update_weights": "Eq. 12",  # W = A_k + Y_j Z_jᵀ
    # the Y_j Z_jᵀ blocks of Eq. 12, built from two weighted matrices
    "repro.weighting.correction.weight_correction_blocks": "Eq. 12",
    "repro.corpus.med.med_update_matrix": "Table 5",  # the two added documents
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_table(src):
    """Dotted name -> file, a package named by its ``__init__``."""
    return {
        ".".join(p.relative_to(src).with_suffix("").parts).removesuffix(".__init__"): p
        for p in src.rglob("*.py")
    }


@functools.cache
def parse(path):
    return ast.parse(path.read_text())


def import_targets(node, path, module):
    """``(target module, imported name | None, bound name)`` for one
    import statement in ``path``; relative ones resolve against ``module``
    (the root scripts have none).  ``import a.b`` binds ``a``."""
    if isinstance(node, ast.Import):
        return [(a.name, None, a.asname or a.name.split(".")[0]) for a in node.names]
    if not module and node.level:
        return []
    base = [node.module] if node.module else []
    if node.level:
        package = module.split(".")
        if path.name != "__init__.py":
            package.pop()
        base = package[: len(package) - node.level + 1] + base
    return [(".".join(base), a.name, a.asname or a.name) for a in node.names]


@functools.cache
def imports(path, module=None):
    """Every import statement anywhere in ``path``, as ``import_targets``."""
    return [
        found
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for found in import_targets(node, path, module)
    ]


def definitions(modules):
    """Definition -> ``(module, class | None, def nodes)``: ``module.f`` for
    every top-level function and class, ``module.C.m`` for every method or
    property of ``C`` that is not a dunder (a setter shares its getter's
    name)."""
    found = {}
    for module, path in modules.items():
        for node in parse(path).body:
            if not isinstance(node, DEFS):
                continue
            cls = f"{module}.{node.name}"
            found[cls] = (module, None, [node])
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, DEFS[:2]) and not item.name.startswith("__"):
                    found.setdefault(f"{cls}.{item.name}", (module, cls, []))[2].append(item)
    return found


@functools.cache
def bindings(path, module):
    """Name -> what it is bound to: a module (``import``), a ``(module,
    name)`` pair (``from module import name``) or a definition, for every
    name ``path`` binds by an import (anywhere in the file) or by a
    top-level ``def`` / ``class``."""
    table = {
        bound: (target, name) if name else
        bound if bound == target.split(".")[0] else target
        for target, name, bound in imports(path, module)
    }
    for node in parse(path).body:
        if isinstance(node, DEFS):
            table[node.name] = f"{module}.{node.name}"
    return table


class Walk:
    """Modules reached and definitions live from ``scripts`` and the
    ``entry`` module; ``seeds`` are definitions whose bodies count as live
    (the exemptions)."""

    def __init__(self, modules, entry, scripts, seeds=()):
        self.modules, self.defs = modules, definitions(modules)
        self.ours = {m.split(".")[0] for m in modules}
        self.methods, self.members = {}, {}  # by method name, by class
        for name, (_, cls, _) in self.defs.items():
            if cls:
                self.methods.setdefault(name.rpartition(".")[2], []).append(name)
                self.members.setdefault(cls, []).append(name)
        self.reached, self.live, self.attrs = set(), set(), set()
        self.todo = [(p, None, parse(p).body) for p in scripts]
        self.reach(entry)
        for name in seeds:
            self.use(name)
        while self.todo:
            self.scan(*self.todo.pop())

    # -- name resolution -------------------------------------------------
    def bound(self, value):
        """What a :func:`bindings` value refers to."""
        return self.lookup(*value) if isinstance(value, tuple) else value

    def lookup(self, module, name):
        """What ``name`` is as an attribute of ``module``, every re-export
        followed: a module, a definition, the module itself (for a
        module-level variable) or, outside ``repro``, ``module.name``.  A
        name a package binds shadows its submodule of that name."""
        if module not in self.modules:
            return f"{module}.{name}"
        value = bindings(self.modules[module], module).get(name)
        if value is not None and value != (module, name):  # not ``from . import name``
            return self.bound(value)
        return f"{module}.{name}" if f"{module}.{name}" in self.modules else module

    def resolve(self, path, module, expr):
        """What a ``Name`` / ``a.b.c`` expression in ``path`` refers to, or
        ``None`` (a local, a call result, ...)."""
        parts = []
        while isinstance(expr, ast.Attribute):
            parts.append(expr.attr)
            expr = expr.value
        if not isinstance(expr, ast.Name):
            return None
        value = bindings(path, module).get(expr.id)
        if value is None:
            value = f"builtins.{expr.id}" if hasattr(builtins, expr.id) else None
        found = value and self.bound(value)
        for attr in reversed(parts):
            if found in self.defs:
                break  # a class attribute: a method is used by its name alone
            found = self.lookup(found, attr)
        return found

    # -- the fixed point -------------------------------------------------
    def reach(self, module):
        """Mark ``module`` and its packages reached; queue their
        module-level code (a package ``__init__``'s imports excluded)."""
        parts = module.split(".")
        for i in range(1, len(parts) + 1):
            name = ".".join(parts[:i])
            path = self.modules.get(name)
            if path is None or name in self.reached:
                continue
            self.reached.add(name)
            init = path.name == "__init__.py"
            self.todo.append((path, name, [
                node for node in parse(path).body
                if not isinstance(node, DEFS)
                and not (init and isinstance(node, (ast.Import, ast.ImportFrom)))
            ]))

    def use(self, target):
        """Count a use of a module or definition; queue a newly live body."""
        if target in self.modules:
            self.reach(target)
        if target not in self.defs or target in self.live:
            return
        module, cls, nodes = self.defs[target]
        if cls and cls not in self.live:
            return  # a method of a dead class goes with it
        self.live.add(target)
        self.reach(module)
        path = self.modules[module]
        if not isinstance(nodes[0], ast.ClassDef):
            self.todo.append((path, module, nodes))
            return
        node = nodes[0]
        members = self.members.get(target, [])
        self.todo.append((path, module, [
            *node.bases, *node.keywords, *node.decorator_list,
            *(item for item in node.body
              if f"{target}.{getattr(item, 'name', '')}" not in members),
        ]))
        for method in members:
            name = method.rpartition(".")[2]
            if name in self.attrs or self.runtime_calls(path, module, node, name):
                self.use(method)

    def use_attr(self, name):
        """Count ``x.name``: a use of every method called ``name``."""
        if name not in self.attrs:
            self.attrs.add(name)
            for method in self.methods.get(name, []):
                self.use(method)

    def runtime_calls(self, path, module, cls, name):
        """Whether a base of ``cls`` outside ``repro`` defines ``name``."""
        for base in cls.bases:
            if isinstance(base, ast.Subscript):  # Generic[T]
                base = base.value
            target = self.resolve(path, module, base)
            if target in self.defs:
                owner, _, (node, *_) = self.defs[target]
                if self.runtime_calls(self.modules[owner], owner, node, name):
                    return True
            elif target and target.split(".")[0] not in self.ours:
                if hasattr(external(target), name):
                    return True
        return False

    def scan(self, path, module, nodes):
        """Count every use in a piece of live code."""
        for node in (sub for top in nodes for sub in ast.walk(top)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target, name, _ in import_targets(node, path, module):
                    self.use(self.lookup(target, name) if name else target)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if isinstance(node, ast.Attribute):
                    self.use_attr(node.attr)
                target = self.resolve(path, module, node)
                if target:
                    self.use(target)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                self.use_attr(node.args[1].value)


@functools.cache
def external(dotted):
    """The object a dotted name outside ``repro`` names, or ``None``."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def unreached(walk):
    """Every non-``__init__`` module ``walk`` does not reach and every
    definition in a reached module (of a live class, for a method) that
    is not live."""
    found = [m for m, p in walk.modules.items()
             if p.name != "__init__.py" and m not in walk.reached]
    found += [
        name for name, (module, cls, _) in walk.defs.items()
        if module in walk.reached and name not in walk.live
        and (cls is None or cls in walk.live)
    ]
    return sorted(found)


def paper_items(text):
    """Every ``Eq. N``, ``Table N``, ``Fig. N`` and ``§N`` that ``text``
    names, a range (``Tables 2–5``) or a list (``Tables 2, 3, 5``) spelled
    out item by item."""
    kinds = {"Eq": "Eq. ", "Table": "Table ", "Figure": "Fig. ", "Fig": "Fig. ", "§": "§"}
    found = set()
    for kind, numbers in re.findall(
        r"(Eq|Table|Figure|Fig|§)s?\.?\s*(\d[\d.]*(?:(?:\s*[,–-]\s*|\s+and\s+)\d[\d.]*)*)",
        text,
    ):
        for part in re.split(r",|\band\b", numbers):
            ends = [end.strip().rstrip(".") for end in re.split("[–-]", part)]
            if len(ends) == 2 and all(end.isdigit() for end in ends):
                ends = [str(n) for n in range(int(ends[0]), int(ends[1]) + 1)]
            found |= {kinds[kind] + end for end in ends}
    return found


@functools.cache
def repo_walk(seeded):
    """The walk over ``src/`` from what a user runs; ``seeded`` counts the
    exempt definitions' bodies as live."""
    scripts = [
        p for d in ("ledger", "benchmarks", "examples") for p in (ROOT / d).glob("*.py")
    ]
    seeds = tuple(EXEMPT_DEFINITIONS) if seeded else ()
    return Walk(module_table(ROOT / "src"), "repro.__main__", scripts, seeds)


def test_every_module_is_reachable_or_exempt_by_the_paper():
    walk = repo_walk(True)
    unexplained = [m for m in unreached(walk) if m in walk.modules]
    assert not unexplained, (
        "reachable from no CLI command, ledger, bench or example — wire it "
        f"or delete it with its tests: {unexplained}"
    )


def test_every_definition_is_reachable_or_exempt_by_the_paper():
    paper = paper_items((ROOT / "PAPER.md").read_text())
    for name, item in EXEMPT_DEFINITIONS.items():
        assert item in paper, f"{name} cites {item!r}, which PAPER.md does not name"
        assert name not in repo_walk(False).live, f"{name} is reached; drop its exemption"
    walk = repo_walk(True)
    unexplained = [d for d in unreached(walk) if d not in walk.modules]
    assert not unexplained, (
        "reachable from no CLI command, ledger, bench or example — wire it "
        f"or delete it with its tests: {unexplained}"
    )


def test_an_exemption_may_cite_any_item_of_a_range_or_list():
    assert paper_items("Tables 2–5, Figures 4–9 and (Eq. 12); §4.3, Tables 2, 3, 7") == {
        "Table 2", "Table 3", "Table 4", "Table 5", "Table 7",
        "Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8", "Fig. 9",
        "Eq. 12", "§4.3",
    }


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
    assert unreached(Walk(modules, "pkg.__main__", [])) == ["pkg.sub.spare"]
    script = tmp_path / "bench.py"
    script.write_text("def test():\n    from pkg.sub import g\n")
    assert unreached(Walk(modules, "pkg.__main__", [script])) == []


def toy(tmp_path, lib, main="from pkg.lib import used\nused()\n", init=""):
    """A toy package: ``pkg.__main__`` (the root) runs ``main`` against
    ``pkg/lib.py``; returns the rule's verdict on it."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(init)
    (pkg / "__main__.py").write_text(main)
    (pkg / "lib.py").write_text(lib)
    return unreached(Walk(module_table(tmp_path), "pkg.__main__", []))


def test_a_spare_function_fails_the_rule(tmp_path):
    lib = "def used():\n    return helper()\n\ndef helper():\n    pass\n\ndef spare():\n    pass\n"
    assert toy(tmp_path, lib) == ["pkg.lib.spare"]


def test_a_spare_method_of_a_live_class_fails_the_rule(tmp_path):
    lib = (
        "class Live:\n"
        "    def __init__(self):\n        self.run()\n"
        "    def run(self):\n        getattr(self, 'named')()\n"
        "    def named(self):\n        pass\n"
        "    def spare(self):\n        pass\n"
        "\n\ndef used():\n    return Live()\n"
    )
    assert toy(tmp_path, lib) == ["pkg.lib.Live.spare"]


def test_a_name_only_a_package_reexports_fails_the_rule(tmp_path):
    lib = "def used():\n    pass\n\ndef spare():\n    pass\n"
    init = "from pkg.lib import spare\n__all__ = ['spare']\n"
    assert toy(tmp_path, lib, init=init) == ["pkg.lib.spare"]


def test_a_local_of_the_same_name_keeps_no_method_alive(tmp_path):
    lib = (
        "class Live:\n    def spare(self):\n        pass\n"
        "\n\ndef used():\n    spare = Live()\n    return spare\n"
    )
    assert toy(tmp_path, lib) == ["pkg.lib.Live.spare"]


def test_an_overridden_stdlib_hook_passes_the_rule(tmp_path):
    """Nothing in ``pkg`` calls ``handle`` or ``run``: the runtime does."""
    lib = (
        "import socketserver\nimport threading\n\n"
        "class Handler(socketserver.BaseRequestHandler):\n"
        "    def handle(self):\n        pass\n\n"
        "class Base(threading.Thread):\n    pass\n\n"
        "class Worker(Base):\n    def run(self):\n        pass\n\n"
        "def used():\n"
        "    Worker().start()\n"
        "    return socketserver.TCPServer(('127.0.0.1', 0), Handler)\n"
    )
    assert toy(tmp_path, lib) == []
