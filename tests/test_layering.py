"""Each module of the package owns its private helpers: no module imports a
name that starts with an underscore from another module of the package.
Tests may still reach private names."""

import ast
from pathlib import Path

import penner


def private_imports(source):
    """``(module, name)`` for each private name that ``source`` imports from
    the package, by a relative import or one from ``penner``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module != "penner" and not module.startswith("penner."):
            continue
        found += [("." * node.level + module, alias.name)
                  for alias in node.names if alias.name.startswith("_")]
    return found


def test_private_imports_are_found():
    source = ("from .spectral import Poly, _to_mpf\n"
              "from penner.core import _x\n"
              "from . import _y\n"
              "from itertools import _z\n"
              "from __future__ import annotations\n"
              "def f():\n"
              "    from .factor import _w\n")
    assert private_imports(source) == [
        (".spectral", "_to_mpf"), ("penner.core", "_x"), (".", "_y"), (".factor", "_w")]


def test_no_module_imports_another_modules_private_names():
    modules = sorted(Path(penner.__file__).parent.glob("*.py"))
    assert len(modules) >= 10
    offenders = [f"{path.stem}: from {module} import {name}"
                 for path in modules
                 for module, name in private_imports(path.read_text())]
    assert offenders == []
