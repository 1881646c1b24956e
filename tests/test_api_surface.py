"""API-surface integrity: every module imports, every __all__ resolves.

A reproduction repo lives or dies by its import hygiene — a stale name
in ``__all__`` or a module that only imports under test fixtures is a
broken public API.  This walks the whole package.
"""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)
TOP_LEVEL = [name for name in MODULES if name.count(".") == 1]
SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def test_package_has_expected_subpackages():
    tops = {m.split(".")[1] for m in MODULES if m.count(".") == 1}
    assert {
        "sparse", "linalg", "text", "weighting", "core", "updating",
        "retrieval", "evaluation", "corpus", "apps", "parallel", "util",
        "errors", "cli",
    } <= tops


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", TOP_LEVEL)
def test_imports_first_in_a_fresh_interpreter(module_name):
    """An import cycle only bites the package a process imports *first*;
    in this process every module is already loaded, in sorted order."""
    done = subprocess.run(
        [sys.executable, "-c", f"import {module_name}"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    mod = importlib.import_module(module_name)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module_name}.__all__ lists {name!r}"


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    mod = importlib.import_module(module_name)
    if module_name.endswith("__main__"):
        return
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name)
