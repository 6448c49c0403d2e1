"""The benchmark's own tests: the oracles accept the program's answers and
reject corrupted ones.

    python3 -m pytest bench
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from penner import cli  # noqa: E402
from penner.catalog import catalog_get, catalog_ids  # noqa: E402
from penner.graphs import graph_of, spanning_tree_tour  # noqa: E402
from penner.spectral import Poly, poly_str  # noqa: E402

TRIANGLE_JOB = {"kind": "degree", "entry": "triangle", "k": 3,
                "gamma": [1, 2, 3], "powers": [2, 1, 3]}


@pytest.fixture(scope="module")
def triangle_answer(tmp_path_factory):
    """A genuine ``penner degree --json`` answer on the scaled triangle."""
    path = tmp_path_factory.mktemp("omega") / "triangle.json"
    k = TRIANGLE_JOB["k"]
    path.write_text(json.dumps({"n": 3, "entries": [[k * x for x in row]
                                                    for row in wl.TRIANGLE]}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["degree", "--omega", str(path), "--gamma", "1,2,3",
                         "--powers", "2,1,3", "--json"])
    assert code == 0
    return json.loads(out.getvalue())


def verdict(payload):
    return oracles.verdict_degree(TRIANGLE_JOB, json.dumps(payload), wl.TRIANGLE)


def failing(checks):
    return sorted(name for name, problems in checks.items() if problems)


def test_genuine_answer_passes(triangle_answer):
    assert failing(verdict(triangle_answer)) == []


def test_flipped_charpoly_coefficient_is_rejected(triangle_answer):
    coeffs = oracles.parse_poly(triangle_answer["charpoly"])
    coeffs[2] = -coeffs[2]
    bad = dict(triangle_answer, charpoly=poly_str(Poly(coeffs[::-1])))
    assert "charpoly" in failing(verdict(bad))


def test_minpoly_that_does_not_divide_is_rejected(triangle_answer):
    bad = dict(triangle_answer, minpoly="x^3 - 2")
    assert "minpoly" in failing(verdict(bad))


def test_wrong_minpoly_factor_is_rejected():
    # (x^2 - 3x + 1)(x - 2): the leading root (3 + sqrt 5)/2 belongs to the
    # quadratic; x - 2 also divides and is irreducible, but has no root there.
    reduced = [1, -5, 7, -2]
    lam = Fraction("2.6180339887498948482045868343656381177203091798057628621")
    assert not oracles.check_minpoly([1, -3, 1], reduced)
    assert not oracles.check_lambda(lam, [1, -3, 1], 1, 10)
    assert not oracles.check_minpoly([1, -2], reduced)
    assert oracles.check_lambda(lam, [1, -2], 1, 10)


def test_lambda_outside_its_bracket_is_rejected(triangle_answer):
    lam = Fraction(triangle_answer["lambda"]) * (1 + Fraction(1, 10 ** 30))
    bad = dict(triangle_answer, **{"lambda": str(lam)})
    assert failing(verdict(bad)) == ["lambda"]


def test_lambda_outside_the_pf_bounds_is_rejected():
    assert oracles.check_lambda(Fraction(3), [1, -3], 4, 10)


def test_parse_poly_reads_the_printed_form():
    for coeffs in ([1, -7, 5, -1], [-2, 0, 0, 1], [1, 0], [5], [1, 123, -1, 0]):
        assert oracles.parse_poly(poly_str(Poly(coeffs[::-1]))) == coeffs


def test_tour_matches_the_package_tour():
    for cid in catalog_ids():
        omega = catalog_get(cid).omega
        rows = [list(row) for row in omega.entries]
        for root in (1, omega.n):
            assert tuple(wl.tour(rows, root)) == spanning_tree_tour(graph_of(omega), root)
