"""Start-up: sympy is imported on first use, not with the package.  The
limit path (``limit``, ``f_gamma``, ``twist_charpoly``) never uses it on
these inputs, and the degree path (``degree``, ``recipe``, ``rank_exact``,
``factor_monic``) uses it only for a polynomial the degree patterns cannot
prove irreducible.  On both, the root locator ``all_roots`` uses it only for
a polynomial with a repeated root.

pytest itself imports sympy, so every check here runs in a fresh
interpreter."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import penner
import penner.cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(penner.__file__)))

# runs ``penner.cli.main`` on argv and prints, as its last line of output,
# the exit code and whether sympy was loaded
CLI = """
import json, sys
from penner.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "sympy": "sympy" in sys.modules}))
"""

# evaluates one expression as the first user of sympy and prints its repr
FIRST_USE = """
import sys
from fractions import Fraction
import penner
assert "sympy" not in sys.modules
result = eval(sys.argv[1])
assert "sympy" in sys.modules
print(repr(result))
"""


# evaluates one expression with no use of sympy and prints its repr
NO_SYMPY = """
import sys
from fractions import Fraction
import penner
result = eval(sys.argv[1])
assert "sympy" not in sys.modules
print(repr(result))
"""


def fresh_python(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_penner_leaves_sympy_unloaded():
    out = fresh_python("import sys, penner; print('sympy' in sys.modules)")
    assert out == "False\n"


@pytest.mark.parametrize("argv, code", [
    (["catalog", "list"], 0),
    (["catalog", "degrees", "--genus", "4", "--punctures", "3"], 0),
    (["--help"], 0),
    (["degree", "--omega", "/nonexistent.json", "--gamma", "1,2"], 2),
], ids=["catalog-list", "catalog-degrees", "help", "missing-omega"])
def test_commands_without_exact_algebra_leave_sympy_unloaded(argv, code):
    verdict = json.loads(fresh_python(CLI, *argv).splitlines()[-1])
    assert verdict == {"code": code, "sympy": False}


@pytest.mark.parametrize("call", [
    "penner.char_poly_exact(((2, 1, 0), (1, 3, 1), (0, 1, 4)))",
    "penner.char_poly_exact(((Fraction(1, 2), 1), (3, Fraction(-2, 3))))",
    "penner.factor_monic(penner.Poly([-1, 0, 0, 0, 1]))",
    "penner.factor_monic(penner.Poly([1, Fraction(-5, 2), 1]))",
], ids=["charpoly-ZZ", "charpoly-QQ", "factor-ZZ", "factor-QQ"])
def test_first_exact_algebra_call_loads_sympy_and_agrees(call):
    expected = eval(call, {"penner": penner, "Fraction": Fraction})
    assert fresh_python(FIRST_USE, call) == repr(expected) + "\n"


@pytest.mark.parametrize("call", [
    "penner.f_gamma(penner.catalog_get('S43-max').omega,"
    " penner.graphs.spanning_tree_tour(penner.graph_of(penner.catalog_get('S43-max').omega), 1))",
    "penner.twist_charpoly(penner.validate_omega([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),"
    " penner.TwistWord((1, 2, 3), (1, 1, 1)))",
], ids=["f-gamma", "twist-charpoly"])
def test_limit_path_calls_leave_sympy_unloaded_and_agree(call):
    expected = eval(call, {"penner": penner, "Fraction": Fraction})
    assert fresh_python(NO_SYMPY, call) == repr(expected) + "\n"


# the reduced polynomials of the S43-max tours from all 24 roots at scale k,
# factored without reading an eigenvalue
S43_MAX_REDUCED_FACTORS = (
    "[penner.factor_monic(penner.structure_split(penner.twist_charpoly("
    "penner.scale(penner.catalog_get('S43-max').omega, {k}), penner.TwistWord(t, (1,) * len(t))),"
    " 24)[1]) for t in [penner.graphs.spanning_tree_tour("
    "penner.graph_of(penner.catalog_get('S43-max').omega), r) for r in range(1, 25)]]")


# the roots of the reduced polynomial of the S43-max tour from root 1 at
# scale k, located on its trace polynomial, which one prime proves squarefree
S43_MAX_ROOTS = (
    "[penner.spectral.all_roots(penner.structure_split(penner.twist_charpoly("
    "penner.scale(penner.catalog_get('S43-max').omega, {k}), penner.TwistWord(t, (1,) * len(t))),"
    " 24)[1]) for t in [penner.graphs.spanning_tree_tour("
    "penner.graph_of(penner.catalog_get('S43-max').omega), 1)]]")


@pytest.mark.parametrize("call", [
    "penner.rank_exact(penner.catalog_get('S43-max').omega)",
    "penner.rank_exact(penner.validate_omega([[0, '1/2', '1/4'], ['1/2', 0, 0], ['1/4', 0, 0]]))",
    *(S43_MAX_REDUCED_FACTORS.format(k=k) for k in (1, 2, 3)),
    *(S43_MAX_ROOTS.format(k=k) for k in (1, 27, 243)),
], ids=["rank", "rank-QQ", "factor-S43-max-k1", "factor-S43-max-k2", "factor-S43-max-k3",
        "roots-S43-max-k1", "roots-S43-max-k27", "roots-S43-max-k243"])
def test_degree_path_calls_leave_sympy_unloaded_and_agree(call):
    expected = eval(call, {"penner": penner, "Fraction": Fraction})
    assert fresh_python(NO_SYMPY, call) == repr(expected) + "\n"


@pytest.mark.parametrize("command", ["degree", "recipe"])
def test_degree_and_recipe_on_s43max_leave_sympy_unloaded_and_agree(command, tmp_path, capsys):
    entry = penner.catalog_get("S43-max")
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"n": entry.omega.n,
                                "entries": [list(row) for row in entry.omega.entries]}))
    tour = penner.graphs.spanning_tree_tour(penner.graph_of(entry.omega), 1)
    argv = [command, "--omega", str(path), "--gamma", ",".join(map(str, tour)), "--json"]
    *printed, verdict = fresh_python(CLI, *argv).splitlines()
    assert json.loads(verdict) == {"code": 0, "sympy": False}
    assert penner.cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == printed


@pytest.mark.parametrize("entries, gamma, scales", [
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], "1,2,3", "4,8"),
    ([[0, 0, 1, 2], [0, 0, 1, 1], [1, 1, 0, 1], [2, 1, 1, 0]], "1,2,3,4", "16,32,64,128"),
], ids=["supported", "divergent"])
def test_limit_leaves_sympy_unloaded_and_agrees(entries, gamma, scales, tmp_path, capsys):
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"n": len(entries), "entries": entries}))
    argv = ["limit", "--omega", str(path), "--gamma", gamma, "--scales", scales, "--json"]
    *printed, verdict = fresh_python(CLI, *argv).splitlines()
    assert json.loads(verdict) == {"code": 0, "sympy": False}
    assert penner.cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == printed
