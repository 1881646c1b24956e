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
* ``x.name`` is receiver-typed: it uses the method ``name`` resolves to
  on each ``repro`` class ``x`` can be and on each of their subclasses.
  ``x`` is typed by ``self`` / ``cls`` / ``super()``, a class name or
  call, an annotation (``X | None``, ``Optional``, ``Union``, strings
  unfolded), a variable or ``self.attr`` whose every binding is typed,
  and the return annotation of a called ``repro`` function, method or
  property.  A type outside ``repro`` uses no ``repro`` method; a
  receiver the walk cannot type, a ``Protocol`` or ``Any`` uses every
  method called ``name`` — so the walk stays sound where it cannot see;
* a method that overrides one of a base class outside ``repro`` is used:
  the runtime calls it (``socketserver.BaseRequestHandler.handle``);
* a package ``__init__``'s imports (its re-exports) and ``__all__``
  entries are not uses;
* a name read from a module that binds it nowhere (``from pkg import
  name``, ``pkg.name``) is a use of that module's PEP 562
  ``__getattr__``, when it has one.

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

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
# definition -> the item of PAPER.md it implements.  An entry is a debt:
# it must cite the paper and must still be unreached from the roots.  Its
# body counts as live, so what it alone calls stays too.
EXEMPT_DEFINITIONS = {
    "repro.corpus.med.med_update_matrix": "Table 5",  # the two added documents
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# expressions whose value is never an instance of a ``repro`` class
LITERALS = (ast.Constant, ast.JoinedStr, ast.List, ast.Tuple, ast.Dict, ast.Set,
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.Lambda)


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


def union(types):
    """The classes any of ``types`` can be: ``None`` (any class) if one
    of them is ``None``."""
    found = set()
    for t in types:
        if t is None:
            return None
        found |= t
    return frozenset(found)


def decorated(node, name):
    """Whether a decorator of ``node`` is (or ends in) ``name``."""
    return any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", "")).endswith(name)
        for d in node.decorator_list
    )


def first_param(node):
    """The ``self`` / ``cls`` of a method ``node``, or ``None``."""
    params = [*node.args.posonlyargs, *node.args.args]
    return params[0].arg if params and not decorated(node, "staticmethod") else None


def assign_targets(node):
    """The targets an assignment (plain, annotated or ``:=``) binds."""
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def assign_site(node):
    """How an assignment types its targets (see :class:`Scope`)."""
    if isinstance(node, ast.AnnAssign):
        return ("ann", node.annotation)
    return ("value", node.value)


def local_nodes(body):
    """Every node of ``body`` outside the functions, lambdas and classes
    it defines — the nodes one scope owns — parents before children."""
    todo = list(body)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, (*DEFS, ast.Lambda)):
            if not isinstance(node, ast.Lambda):
                todo += node.decorator_list
            continue
        todo += ast.iter_child_nodes(node)


class Scope:
    """The variables one module, function or lambda binds, each to its
    binding sites: ``("value", expr)``, ``("ann", annotation)`` (a
    parameter's too), ``("class", C)`` (``self`` / ``cls`` of a method of
    ``C``), or ``None`` for a binding the walk does not type (a loop or
    ``with`` target, an unannotated parameter, a nested ``def``).  A
    module's imports, ``def`` s and ``class`` es are :func:`bindings`'."""

    def __init__(self, path, module, node, parent=None, cls=None):
        self.path, self.module, self.parent, self.cls = path, module, parent, cls
        self.sites = {}
        body = node.body if isinstance(node.body, list) else [node.body]
        if not isinstance(node, ast.Module):
            args, owner = node.args, cls and first_param(node)
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                self.bind(arg.arg, ("class", cls) if arg.arg == owner else
                          arg.annotation and ("ann", arg.annotation))
            for arg in (args.vararg, args.kwarg):
                if arg:
                    self.bind(arg.arg, None)
        typed = set()
        for node in local_nodes(body):
            if isinstance(node, DEFS) and parent is not None:
                self.bind(node.name, None)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                for target in assign_targets(node):
                    if isinstance(target, ast.Name):
                        typed.add(target)
                        self.bind(target.id, assign_site(node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node not in typed:
                    self.bind(node.id, None)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                for name in node.names:
                    self.bind(name, None)
            elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)):
                if node.name:
                    self.bind(node.name, None)

    def bind(self, name, site):
        self.sites.setdefault(name, []).append(site)

    def owner(self, name):
        """The scope whose variable ``name`` is, or ``None`` (an import,
        a module's ``def`` or ``class``, a builtin)."""
        scope = self
        while scope is not None and name not in scope.sites:
            scope = scope.parent
        return scope


class ClassInfo:
    """What a top-level ``repro`` class is made of, for typing: its
    ``repro`` bases, whether it is a ``Protocol``, its annotated fields,
    every function of its body (dunders included) and every store to an
    attribute of it in its body or through ``self`` in a method (not in a
    nested function), as ``(method node | None, site)``."""

    def __init__(self, walk, path, module, node):
        self.path, self.module = path, module
        self.bases, self.protocol = [], False
        for base in node.bases:
            target = walk.resolve(path, module, getattr(base, "value", base))
            self.protocol |= target == "typing.Protocol"
            if target in walk.defs:
                self.bases.append(target)
        self.fields, self.funcs, self.stores = {}, {}, {}
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                self.fields[item.target.id] = item.annotation
            elif isinstance(item, ast.Assign):
                for name in (n for t in item.targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name):
                        self.store(name.id, None, None)
            elif isinstance(item, DEFS[:2]):
                self.funcs.setdefault(item.name, []).append(item)
                if owner := first_param(item):
                    self.self_stores(walk, item, owner)

    def store(self, attr, method, site):
        self.stores.setdefault(attr, []).append((method, site))

    def self_stores(self, walk, method, name):
        """``name.attr = value`` and ``name.attr: T = value`` are typed;
        any other store to ``name.attr`` (unpacking, ``+=``, a loop
        target) is not.  Each is marked handled for :meth:`Walk.taint`."""
        typed = set()
        for node in local_nodes(method.body):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in assign_targets(node):
                    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                            and target.value.id == name):
                        typed.add(target)
                        self.store(target.attr, method, assign_site(node))
            elif (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id == name):
                walk.handled.add(node)
                if node not in typed:
                    self.store(node.attr, method, None)


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
        self.handled, self.scopes, self.types, self.busy = set(), {}, {}, set()
        self.classes = {
            name: ClassInfo(self, modules[module], module, nodes[0])
            for name, (module, cls, nodes) in self.defs.items()
            if cls is None and isinstance(nodes[0], ast.ClassDef)
        }
        self.subclasses = {name: [] for name in self.classes}
        for name, info in self.classes.items():
            for base in info.bases:
                self.subclasses[base].append(name)
        self.tainted = self.taint([*modules.values(), *scripts])
        self.reached, self.live, self.attrs, self.wanted = set(), set(), set(), set()
        self.todo = [(p, None, None, parse(p).body) for p in scripts]
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
        path = self.modules[module]
        value = bindings(path, module).get(name)
        if value is not None and value != (module, name):  # not ``from . import name``
            return self.bound(value)
        if f"{module}.{name}" in self.modules:
            return f"{module}.{name}"
        # PEP 562: a name the module binds nowhere is its ``__getattr__``'s
        # (the import system binds the dunders: ``__file__``, ``__path__``).
        hook = f"{module}.__getattr__"
        if (hook in self.defs and not name.startswith("__")
                and name not in self.module_scope(path, module).sites):
            return hook
        return module

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

    # -- receiver types --------------------------------------------------
    # A type is the frozenset of ``repro`` classes a value can be (empty:
    # none, e.g. an ``np.ndarray``) or ``None``: any class at all.
    def namespace(self, expr, scope):
        """The module ``expr`` names, or the dotted name of what it names
        outside ``repro``; ``None`` for anything else."""
        if isinstance(expr, ast.Name):
            if scope.owner(expr.id):
                return None
            value = bindings(scope.path, scope.module).get(expr.id)
            if value is None:
                return f"builtins.{expr.id}" if hasattr(builtins, expr.id) else None
            return self.binding_namespace(value)
        if isinstance(expr, ast.Attribute):
            outer = self.namespace(expr.value, scope)
            return outer and self.member_namespace(outer, expr.attr)
        return None

    def binding_namespace(self, value):
        """:meth:`namespace` of what a :func:`bindings` value binds."""
        if isinstance(value, tuple):
            return self.member_namespace(*value)
        return None if value in self.defs else value

    def member_namespace(self, module, name):
        if module not in self.modules:
            return f"{module}.{name}"
        value = bindings(self.modules[module], module).get(name)
        if value is not None and value != (module, name):
            return self.binding_namespace(value)
        return f"{module}.{name}" if f"{module}.{name}" in self.modules else None

    def receiver(self, expr, scope):
        """What ``expr.name`` looks ``name`` up on: a namespace (``str``,
        see :meth:`namespace`) or the type of ``expr``."""
        return self.namespace(expr, scope) or self.type_of(expr, scope)

    def type_of(self, expr, scope):
        if expr not in self.types:
            self.types[expr] = self.infer(expr, scope)
        return self.types[expr]

    def infer(self, expr, scope):
        if isinstance(expr, ast.Name):
            owner = scope.owner(expr.id)
            if owner:
                return self.variable_type(owner, expr.id)
            value = bindings(scope.path, scope.module).get(expr.id)
            if value is None:
                return frozenset() if hasattr(builtins, expr.id) else None
            return self.binding_type(value)
        if isinstance(expr, ast.Attribute):
            owner = self.receiver(expr.value, scope)
            if isinstance(owner, str):
                return self.member_type(owner, expr.attr)
            return owner and union(self.field_type(c, expr.attr) for c in owner)
        if isinstance(expr, ast.Call):
            return self.call_type(expr, scope)
        if isinstance(expr, ast.IfExp):
            return union([self.type_of(expr.body, scope), self.type_of(expr.orelse, scope)])
        if isinstance(expr, ast.BoolOp):
            return union(self.type_of(v, scope) for v in expr.values)
        if isinstance(expr, ast.NamedExpr):
            return self.type_of(expr.value, scope)
        if isinstance(expr, LITERALS):
            return frozenset()
        return None

    def guarded(self, key, infer):
        """``infer()``, or ``None`` while it is already being inferred."""
        if key in self.busy:
            return None
        self.busy.add(key)
        try:
            return infer()
        finally:
            self.busy.discard(key)

    def variable_type(self, scope, name):
        """The type of the variable ``name`` of ``scope``: what every one
        of its binding sites gives it."""
        return self.guarded(("name", id(scope), name), lambda: union(
            self.site_type(scope, site) for site in scope.sites[name]))

    def site_type(self, scope, site):
        if site is None:
            return None
        kind, what = site
        if kind == "class":
            return frozenset([what])
        if kind == "ann":
            return self.annotation(scope.path, scope.module, what, scope.cls)
        return self.type_of(what, scope)

    def binding_type(self, value):
        """The type of what a :func:`bindings` value binds: a class is
        itself, a function or module no class."""
        if isinstance(value, tuple):
            return self.member_type(*value)
        return frozenset([value]) if value in self.classes else frozenset()

    def member_type(self, module, name):
        """The type of ``module.name``: a variable of a ``repro`` module is
        typed by its module-level bindings."""
        if module not in self.modules:
            return frozenset()
        value = bindings(self.modules[module], module).get(name)
        if value is not None and value != (module, name):
            return self.binding_type(value)
        if f"{module}.{name}" in self.modules:
            return frozenset()
        scope = self.module_scope(self.modules[module], module)
        return self.variable_type(scope, name) if name in scope.sites else None

    def call_type(self, call, scope):
        """A call of a ``repro`` class is an instance of it; of a ``repro``
        function, method or property, its return annotation says."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "super" and not scope.owner("super"):
            cls = self.enclosing_class(scope)
            return frozenset(self.classes[cls].bases) if cls else None
        if self.namespace(func, scope) is not None:
            return None  # a call of anything outside ``repro``
        if isinstance(func, ast.Name):
            if scope.owner(func.id):
                return None
            target = self.resolve(scope.path, scope.module, func)
        elif isinstance(func, ast.Attribute):
            owner = self.receiver(func.value, scope)
            if owner is None:
                return None
            if not isinstance(owner, str):
                return union(self.returns(c, func.attr) for c in owner)
            target = self.lookup(owner, func.attr)
        else:
            return None
        if target in self.classes:
            return frozenset([target])
        if target in self.defs:
            module, _, (node, *_) = self.defs[target]
            return node.returns and self.annotation(self.modules[module], module, node.returns)
        return None

    def enclosing_class(self, scope):
        while scope is not None and scope.cls is None:
            scope = scope.parent
        return scope and scope.cls

    def annotation(self, path, module, ann, cls=None):
        """The type an annotation names: ``X | None``, ``Optional[X]``,
        ``Union[...]`` and a string unfolded; ``Any``, ``object``, a
        ``Protocol`` and an alias or ``TypeVar`` are any class; a type
        outside ``repro`` is none."""
        if isinstance(ann, ast.Constant):
            if not isinstance(ann.value, str):
                return frozenset()  # None
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
            return self.annotation(path, module, ann, cls)
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            return union(self.annotation(path, module, a, cls) for a in (ann.left, ann.right))
        if isinstance(ann, ast.Subscript):
            outer = self.resolve(path, module, ann.value)
            args = ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]
            if outer in ("typing.Optional", "typing.Union"):
                return union(self.annotation(path, module, a, cls) for a in args)
            if outer in ("typing.Annotated", "typing.ClassVar", "typing.Final",
                         "typing.Type", "builtins.type"):
                return self.annotation(path, module, args[0], cls)
            ann = ann.value  # a generic: the class it subscripts
        target = self.resolve(path, module, ann)
        if target == "typing.Self":
            return cls and frozenset([cls])
        if target in self.classes:
            return None if self.classes[target].protocol else frozenset([target])
        if target is None or target.split(".")[0] in self.ours or target in (
                "typing.Any", "builtins.object"):
            return None
        return frozenset()

    # -- classes -----------------------------------------------------------
    def mro(self, cls):
        """``cls`` and its ``repro`` bases, depth first."""
        found = [cls]
        for base in self.classes[cls].bases:
            found += [b for b in self.mro(base) if b not in found]
        return found

    def family(self, cls):
        """``cls`` and every ``repro`` class that derives from it."""
        found = [cls]
        for sub in self.subclasses[cls]:
            found += [c for c in self.family(sub) if c not in found]
        return found

    def find(self, cls, name):
        """The class of ``cls``'s MRO that defines ``name`` in its body."""
        return next((b for b in self.mro(cls) if name in self.classes[b].funcs), None)

    def returns(self, cls, name):
        """The type ``x.name(...)`` returns for an ``x`` of class ``cls``."""
        found = []
        for k in self.family(cls):
            owner = self.find(k, name)
            if owner is None:
                return None  # a method outside ``repro`` (``_replace``, ...)
            node = self.classes[owner].funcs[name][0]
            if decorated(node, "property") or node.returns is None:
                return None
            info = self.classes[owner]
            found.append(self.annotation(info.path, info.module, node.returns, owner))
        return union(found)

    def field_type(self, cls, name):
        """The type of ``x.name`` for an ``x`` of class ``cls``: a field's
        annotation, a property's return annotation, or every value a
        method of the class stores to ``self.name``."""
        return self.guarded(("field", cls, name), lambda: union(
            self.own_field_type(k, name) for k in self.family(cls)))

    def own_field_type(self, cls, name):
        mro = self.mro(cls)
        for b in mro:
            if name in self.classes[b].fields:
                info = self.classes[b]
                return self.annotation(info.path, info.module, info.fields[name], b)
        owner = self.find(cls, name)
        if owner is not None:
            node = self.classes[owner].funcs[name][0]
            if not decorated(node, "property"):
                return frozenset()  # a bound method
            info = self.classes[owner]
            return node.returns and self.annotation(info.path, info.module, node.returns, owner)
        stores = [(b, s) for b in mro for s in self.classes[b].stores.get(name, [])]
        if name in self.tainted or not stores:
            return None
        return union(
            self.site_type(self.function_scope(b, method), site) if method else None
            for b, (method, site) in stores
        )

    def module_scope(self, path, module):
        if path not in self.scopes:
            self.scopes[path] = Scope(path, module, parse(path))
        return self.scopes[path]

    def function_scope(self, cls, method):
        """The scope of a method of the top-level class ``cls``."""
        info = self.classes[cls]
        return self.scope(info.path, info.module, method,
                          self.module_scope(info.path, info.module), cls)

    def scope(self, path, module, node, parent, cls=None):
        if node not in self.scopes:
            self.scopes[node] = Scope(path, module, node, parent, cls)
        return self.scopes[node]

    def taint(self, paths):
        """Attribute names stored through anything but a method's own
        ``self`` (``x.name = ...``, ``setattr(x, "name", ...)``,
        ``object.__setattr__(self, "name", ...)``), anywhere: the walk
        types no unannotated attribute of that name."""
        found = set()
        for path in paths:
            for node in ast.walk(parse(path)):
                if (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load)
                        and node not in self.handled):
                    found.add(node.attr)
                elif (isinstance(node, ast.Call) and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)
                      and (getattr(node.func, "id", None) == "setattr"
                           or getattr(node.func, "attr", None) == "__setattr__")):
                    found.add(node.args[1].value)
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
            self.todo.append((path, name, None, [
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
            self.wanted.add(target)
            return  # a method of a dead class goes with it
        self.live.add(target)
        self.reach(module)
        path = self.modules[module]
        if not isinstance(nodes[0], ast.ClassDef):
            self.todo.append((path, module, cls, nodes))
            return
        node = nodes[0]
        members = self.members.get(target, [])
        self.todo.append((path, module, target, [
            *node.bases, *node.keywords, *node.decorator_list,
            *(item for item in node.body
              if f"{target}.{getattr(item, 'name', '')}" not in members),
        ]))
        for method in members:
            name = method.rpartition(".")[2]
            if (name in self.attrs or method in self.wanted
                    or self.runtime_calls(path, module, node, name)):
                self.use(method)

    def use_attr(self, name):
        """Count ``x.name`` for an ``x`` of any class: a use of every
        method called ``name``."""
        if name not in self.attrs:
            self.attrs.add(name)
            for method in self.methods.get(name, []):
                self.use(method)

    def use_method(self, cls, name):
        """Count ``x.name`` for an ``x`` of class ``cls``: a use of the
        method ``name`` resolves to on ``cls`` and on each class that
        derives from it."""
        for k in self.family(cls):
            owner = self.find(k, name)
            if owner is not None:
                self.use(f"{owner}.{name}")

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

    def scan(self, path, module, cls, nodes):
        """Count every use in a piece of live code: ``nodes`` of the
        module ``path`` (of the body of class ``cls``, if given)."""
        top = self.module_scope(path, module)
        todo = [(node, top, cls) for node in nodes]
        while todo:
            node, scope, cls = todo.pop()
            if isinstance(node, (*DEFS[:2], ast.Lambda)):
                args = node.args
                outer = [*args.defaults, *filter(None, args.kw_defaults)]
                if not isinstance(node, ast.Lambda):
                    outer += [*node.decorator_list, node.returns, *(
                        a.annotation for a in (*args.posonlyargs, *args.args,
                                               *args.kwonlyargs, args.vararg, args.kwarg)
                        if a is not None)]
                todo += [(n, scope, None) for n in outer if n is not None]
                inner = self.scope(path, module, node, scope, cls)
                body = node.body if isinstance(node.body, list) else [node.body]
                todo += [(n, inner, None) for n in body]
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for target, name, _ in import_targets(node, path, module):
                    self.use(self.lookup(target, name) if name else target)
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if isinstance(node, ast.Attribute):
                    owner = self.receiver(node.value, scope)
                    if owner is None:
                        self.use_attr(node.attr)
                    elif not isinstance(owner, str):
                        for c in owner:
                            self.use_method(c, node.attr)
                target = self.resolve(path, module, node)
                if target:
                    self.use(target)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) > 1
                  and isinstance(node.args[1], ast.Constant)):
                self.use_attr(node.args[1].value)
            todo += [(n, scope, None) for n in ast.iter_child_nodes(node)]


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


#: What a read-only front end never runs: the build and update stack, the
#: store's writer and the fleet's standby, and the toolbox's engines,
#: corpora and applications.
WRITER_AND_TOOLBOX = (
    "repro.updating", "repro.linalg", "repro.text.parser", "repro.text.tdm",
    "repro.core.build", "repro.store.durable", "repro.store.sealing",
    "repro.cluster.standby", "repro.retrieval", "repro.apps",
    "repro.corpus", "repro.evaluation",
)
#: What a shard worker never runs besides: the front end's transport,
#: service and client, its tenant registry, router and supervisor.
FRONT_END = (
    "repro.server.http", "repro.server.service", "repro.server.client",
    "repro.tenancy", "repro.cluster.router", "repro.cluster.supervisor",
    "repro.cluster.service",
)


def loaded_from(imports, banned):
    """The modules of ``banned`` (each a module or a package) that a fresh
    interpreter loads for ``import <imports>``."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {imports}; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True,
    )
    return sorted(
        m for m in done.stdout.split()
        if any(m == b or m.startswith(b + ".") for b in banned)
    )


def test_a_shard_worker_loads_only_reader_code():
    """A worker process (``python -m repro cluster worker``) is spawned on
    every start, restart, failover and fleet attach: it compiles nothing
    it does not run — its threads serve blocking sockets, so not even
    ``asyncio``."""
    assert loaded_from(
        "repro.cli, repro.cluster.worker",
        WRITER_AND_TOOLBOX + FRONT_END + ("asyncio",),
    ) == []


def test_the_read_only_front_end_loads_no_writer_or_toolbox_code():
    """``cluster serve`` without ``--writable`` / ``--standby``: the fleet
    imports its writers only when configured with one."""
    assert loaded_from(
        "repro.cli, repro.cluster.service, repro.server.http",
        WRITER_AND_TOOLBOX,
    ) == []


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


def test_a_module_getattr_is_used_only_by_a_name_the_module_lacks(tmp_path):
    """PEP 562: ``from pkg import lazy`` runs ``pkg.__getattr__``; a name
    ``pkg`` binds itself does not."""
    lib = "def used():\n    pass\n"
    init = "VERSION = 1\n\n\ndef __getattr__(name):\n    return name\n"
    verdicts = {}
    for name in ("VERSION", "lazy"):
        (tmp_path / name).mkdir()
        main = f"from pkg.lib import used\nfrom pkg import {name}\nused()\n"
        verdicts[name] = toy(tmp_path / name, lib, main, init)
    assert verdicts == {"VERSION": ["pkg.__getattr__"], "lazy": []}


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


TWO_RUNS = (
    "class A:\n    def run(self):\n        pass\n\n"
    "class B:\n    def run(self):\n        pass\n\n"
)


def test_a_typed_call_keeps_only_its_class_method(tmp_path):
    """``a`` is an ``A`` (a class called, a return annotation), so
    ``a.run()`` keeps ``A.run`` and leaves ``B.run`` flagged."""
    lib = TWO_RUNS + (
        "def make() -> A:\n    return A()\n\n"
        "def used():\n    a = A()\n    a.run()\n    make().run()\n    return B()\n"
    )
    assert toy(tmp_path, lib) == ["pkg.lib.B.run"]


def test_an_untyped_receiver_keeps_every_class_method(tmp_path):
    lib = TWO_RUNS + "def used(x):\n    x.run()\n    return A(), B()\n"
    assert toy(tmp_path, lib) == []


def test_self_in_a_base_class_keeps_a_subclass_override(tmp_path):
    lib = (
        "class Base:\n"
        "    def go(self):\n        return self.step()\n"
        "    def step(self):\n        pass\n\n"
        "class Sub(Base):\n    def step(self):\n        pass\n\n"
        "def used():\n    return Sub().go()\n"
    )
    assert toy(tmp_path, lib) == []


def test_an_optional_or_string_annotation_types_its_receiver(tmp_path):
    lib = "from typing import Optional\n\n" + TWO_RUNS + (
        "def used(x: A | None, y: 'A', z: Optional['A']):\n"
        "    x.run()\n    y.run()\n    z.run()\n    return B()\n"
    )
    assert toy(tmp_path, lib) == ["pkg.lib.B.run"]


@pytest.mark.parametrize("annotation", ["Runner", "Any"])
def test_a_protocol_or_any_receiver_keeps_every_class_method(tmp_path, annotation):
    lib = "from typing import Any, Protocol\n\n" + TWO_RUNS + (
        "class Runner(Protocol):\n    def run(self) -> None:\n        ...\n\n"
        f"def used(x: {annotation}, r: Runner):\n    x.run()\n    return A(), B()\n"
    )
    assert toy(tmp_path, lib) == []


def test_a_field_typed_by_its_annotation_keeps_no_method_of_its_name(tmp_path):
    """``holder.engine`` is a field of ``Holder``, not ``Other.engine``,
    and its annotation makes ``.run()`` an ``Engine`` method."""
    lib = (
        "from dataclasses import dataclass\n\n"
        "class Engine:\n    def run(self):\n        pass\n\n"
        "class Other:\n"
        "    def engine(self):\n        pass\n"
        "    def run(self):\n        pass\n\n"
        "@dataclass\nclass Holder:\n    engine: Engine\n\n"
        "def used():\n    Other()\n    return Holder(Engine()).engine.run()\n"
    )
    assert toy(tmp_path, lib) == ["pkg.lib.Other.engine", "pkg.lib.Other.run"]
