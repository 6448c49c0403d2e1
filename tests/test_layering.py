"""Each module of the package owns its private helpers: no module imports a
name that starts with an underscore from another module of the package.
Tests may still reach private names.  ``penner.modp`` imports only the
standard library, so that arithmetic modulo a prime needs nothing else,
``penner.core`` imports neither mpmath nor sympy, so that its arithmetic,
the Collatz-Wielandt enclosure among it, stays exact,
``penner.spectral`` is the one module that imports sympy, no module names
mpmath's ``polyroots``: ``spectral.all_roots`` locates roots by its own
Durand-Kerner iteration, and ``spectral.pf_eigenvalue`` is the one
eigenvalue step: it alone calls ``core.collatz_wielandt``."""

import ast
import sys
from pathlib import Path

import penner
import penner.core
import penner.modp


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


def outside_imports(source):
    """The modules that ``source`` imports from outside the standard library:
    relative imports, the package itself and any third-party module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [name for name in names
                  if name.startswith(".") or name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_outside_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import operator, math\n"
              "from typing import List\n"
              "from .spectral import Poly\n"
              "import sympy\n"
              "from mpmath import mpf\n"
              "import penner.core\n"
              "def f():\n"
              "    from . import factor\n")
    assert outside_imports(source) == [".spectral", "sympy", "mpmath", "penner.core", "."]


def test_modp_imports_only_the_standard_library():
    assert outside_imports(Path(penner.modp.__file__).read_text()) == []


def test_core_imports_neither_mpmath_nor_sympy():
    imported = {name.split(".")[0] for name in outside_imports(Path(penner.core.__file__).read_text())}
    assert imported & {"mpmath", "sympy"} == set()


def test_only_spectral_imports_sympy():
    modules = sorted(Path(penner.__file__).parent.glob("*.py"))
    importers = [path.stem for path in modules
                 if any(name.split(".")[0] == "sympy"
                        for name in outside_imports(path.read_text()))]
    assert importers == ["spectral"]


def names_used(source):
    """Every variable and module name in ``source``, and every attribute it
    reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_names_used_are_found():
    source = ("import mpmath as mp\n"
              "from mpmath import polyval\n"
              "def f(p):\n"
              "    return mp.polyroots(p), roots_init\n")
    assert names_used(source) == {"mpmath", "polyval", "mp", "polyroots", "p", "roots_init"}


def test_no_module_names_polyroots():
    modules = sorted(Path(penner.__file__).parent.glob("*.py"))
    assert [path.stem for path in modules
            if "polyroots" in names_used(path.read_text())] == []


def callers(source, name):
    """The scope, as dotted names of its enclosing classes and functions, of
    each call of ``name`` in ``source``, called by its name or as an
    attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_callers_are_found():
    source = ("from .core import collatz_wielandt\n"
              "import penner.core as core\n"
              "bounds = collatz_wielandt(m, 50)\n"
              "class Report:\n"
              "    def _pf(self):\n"
              "        return f(core.collatz_wielandt(self.m, 1))\n"
              "def g():\n"
              "    def h():\n"
              "        return collatz_wielandt\n"
              "    return collatz_wielandt(h(), 2)\n")
    assert callers(source, "collatz_wielandt") == ["", "Report._pf", "g"]


def test_pf_eigenvalue_is_the_one_eigenvalue_step():
    modules = sorted(Path(penner.__file__).parent.glob("*.py"))
    assert [f"{path.stem}.{scope}" for path in modules
            for scope in callers(path.read_text(), "collatz_wielandt")] == [
        "spectral.pf_eigenvalue"]
    assert [path.stem for path in modules
            if any(isinstance(node, ast.FunctionDef) and node.name == "product_pf_eigenvalue"
                   for node in ast.walk(ast.parse(path.read_text())))] == []


def test_twist_charpoly_is_the_krylov_kernels_one_caller():
    modules = sorted(Path(penner.__file__).parent.glob("*.py"))
    assert [f"{path.stem}.{scope}" for path in modules
            for scope in callers(path.read_text(), "krylov_charpoly_mod")] == [
        "spectral.twist_charpoly"]
