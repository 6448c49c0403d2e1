"""Tests for the Collatz-Wielandt enclosure of the leading eigenvalue of a
twist product (``core.collatz_wielandt``) and for the eigenvalue that
``spectral.pf_eigenvalue`` reads from it when it is given the product: the
exact bounds hold the leading eigenvalue by sympy's exact arithmetic and
match a reference that keeps the ratios as fractions, the eigenvalue is
bit-identical to the one located among all roots, the bounds answer alone
where Newton's answer fails, and where the iteration stalls the answer and
the failure are those of the roots, also where a derivative rounds to 0.
The integer sign-change check ``brackets_root`` is checked against rational
evaluation."""

import json
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import penner.spectral
from penner import (
    IntersectionMatrix,
    TwistWord,
    graph_of,
    pf_eigenvalue,
    run_recipe,
    scale,
    twist_product,
    validate_omega,
)
from penner.catalog import catalog_get, catalog_ids
from penner.cli import main
from penner.core import collatz_wielandt
from penner.errors import NotPerronFrobenius
from penner.graphs import spanning_tree_tour
from penner.spectral import Poly, brackets_root, strip_unit_root, twist_charpoly

from conftest import collatz_wielandt_reference, count_calls

X = sympy.Symbol("x")


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def tour_word(omega, root):
    tour = spanning_tree_tour(graph_of(omega), root=root)
    return TwistWord(tour, (1,) * len(tour))


def product_and_reduced(omega, word):
    """The twist product and its reduced characteristic polynomial."""
    m = twist_product(omega, word)
    return m, strip_unit_root(twist_charpoly(omega, word))[1]


def sympy_poly(p):
    return sympy.Poly(list(p.leading_first()), X, domain="QQ")


@pytest.mark.parametrize("k", [1, 3])
def test_enclosure_holds_lambda_on_the_catalog(k):
    # The monic reduced polynomial is negative at lo, so a root lies above
    # lo, and sympy's exact Taylor shift to hi has no sign change, so by
    # Descartes's rule no root lies above hi: the largest real root, which
    # is lambda, lies in (lo, hi].  (sympy's intervals() isolates every
    # real root; with the roots that crowd near 1 it takes 7 s on Mr-12 at
    # k = 3 and minutes on S43-max.)
    for cid in catalog_ids():
        omega = scale(catalog_get(cid).omega, k)
        m, reduced = product_and_reduced(omega, tour_word(omega, 1))
        lo, hi = collatz_wielandt(m, 50)
        assert (hi - lo) * 10**56 <= lo, cid
        p = sympy_poly(reduced)
        assert p.eval(rational(lo)) < 0, cid
        assert all(c >= 0 for c in p.shift(rational(hi)).all_coeffs()), cid


def assert_holds_the_largest_root(p, lo, hi):
    """``lo <= rho <= hi`` for the largest real root ``rho`` of the sympy
    polynomial ``p``: Sturm counts one root where ``[lo, hi]`` meets sympy's
    isolating interval of ``rho``."""
    (a, b), _mult = p.intervals()[-1]
    inf, sup = max(rational(lo), a), min(rational(hi), b)
    assert inf <= sup and p.count_roots(inf, sup) == 1


_weights = st.one_of(st.integers(1, 5),
                     st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=5))


@st.composite
def covered_products(draw):
    """``(omega, word)``: a connected nonnegative rational ``omega`` on at
    most six curves, a random spanning tree with more edges, and a word that
    uses every curve."""
    n = draw(st.integers(2, 6))
    rows = [[0] * n for _ in range(n)]
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        rows[i][j] = rows[j][i] = draw(_weights)
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] == 0 and draw(st.booleans()):
                rows[i][j] = rows[j][i] = draw(_weights)
    letters = draw(st.permutations(range(1, n + 1))) + draw(
        st.lists(st.integers(1, n), max_size=6))
    gamma = [i for j, i in enumerate(letters) if j == 0 or letters[j - 1] != i]
    powers = draw(st.lists(st.integers(1, 3), min_size=len(gamma), max_size=len(gamma)))
    return validate_omega(rows), TwistWord(tuple(gamma), tuple(powers))


@settings(max_examples=60, deadline=None)
@given(covered_products())
def test_enclosure_and_lambda_hold_the_leading_root(case):
    omega, word = case
    m, reduced = product_and_reduced(omega, word)
    p = sympy_poly(reduced)
    bounds = collatz_wielandt(m, 50)
    if bounds is not None:  # else the step cap was hit, and λ is located among all roots
        assert_holds_the_largest_root(p, *bounds)
    pf = pf_eigenvalue(reduced, 50, m)
    value, error = map(penner.spectral._mpf_to_fraction, pf)
    assert_holds_the_largest_root(p, value - error, value + error)


@pytest.mark.parametrize("k", [1, 243])
def test_lambda_from_the_product_is_bit_identical_on_the_catalog(k):
    for cid in catalog_ids():
        omega = scale(catalog_get(cid).omega, k)
        for root in (1, 2):
            m, reduced = product_and_reduced(omega, tour_word(omega, root))
            assert collatz_wielandt(m, 50) is not None, (cid, root)  # no fallback
            ours, located = pf_eigenvalue(reduced, 50, m), pf_eigenvalue(reduced, 50)
            assert ours.value._mpf_ == located.value._mpf_, (cid, root)
            assert ours.error._mpf_ == located.error._mpf_, (cid, root)


def test_an_answer_the_checks_reject_falls_back(omega3, monkeypatch):
    real = penner.spectral.refine_real_root
    starts = []

    def overconfident_first(p, x0, digits):
        pf = real(p, x0, digits)
        starts.append(x0)
        return pf._replace(error=pf.error / 10**30) if len(starts) == 1 else pf

    monkeypatch.setattr(penner.spectral, "refine_real_root", overconfident_first)
    m, reduced = product_and_reduced(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    lo, hi = collatz_wielandt(m, 50)
    # the overconfident Newton interval misses [lo, hi], so the bounds
    # answer alone: their midpoint, with an error that reaches both of them
    pf = pf_eigenvalue(reduced, 50, m)
    assert len(starts) == 1
    value, error = map(penner.spectral._mpf_to_fraction, pf)
    assert value == penner.spectral._mpf_to_fraction(starts[0])
    assert value - error <= lo and hi <= value + error
    # where the sign-change check rejects that answer too, λ is located
    # among all roots, and Newton starts a second time
    real_check = penner.spectral.brackets_root
    checks = []

    def reject_bounds(p, value, error):
        checks.append(value)
        return len(checks) > 2 and real_check(p, value, error)

    monkeypatch.setattr(penner.spectral, "brackets_root", reject_bounds)
    starts.clear()
    pf = pf_eigenvalue(reduced, 50, m)
    # the bounds answer is checked at two roundings of the midpoint, the
    # third check comes from all_roots
    assert len(starts) == 2 and len(checks) == 3
    monkeypatch.setattr(penner.spectral, "brackets_root", real_check)
    assert pf == pf_eigenvalue(reduced, 50)


def tiny_edge(epsilon):
    """``[[0, epsilon], [epsilon, 0]]`` and the word ``1, 2``: a certified
    product whose eigenvalues ``lambda`` and ``1 / lambda`` are both about
    1, so the power iteration converges at a rate of about
    ``1 - 2 epsilon``."""
    return IntersectionMatrix(((0, epsilon), (epsilon, 0))), TwistWord((1, 2), (1, 1))


def test_the_recipe_falls_back_where_the_enclosure_stalls():
    omega, word = tiny_edge(Fraction(1, 10**10))
    assert collatz_wielandt(twist_product(omega, word), 50) is None
    result = run_recipe(omega, word, digits=50)
    assert (result.k_star, result.degree) == (1, 2)
    assert result.lam._mpf_ == pf_eigenvalue(result.charpoly, 50).value._mpf_


def test_the_recipe_keeps_the_root_locators_failure_where_the_enclosure_stalls():
    # A known defect: Newton's error is its stopping tolerance, which the
    # rounding of p(x) outruns here, and the exact bracket then fails on
    # this certified product.  The fallback keeps that failure as it is.
    omega, word = tiny_edge(Fraction(1, 10**20))
    assert collatz_wielandt(twist_product(omega, word), 50) is None
    with pytest.raises(NotPerronFrobenius) as info:
        run_recipe(omega, word, digits=50)
    assert str(info.value) == "leading eigenvalue 1.0 +- 1.0e-55 does not enclose a root"


def holds_the_larger_root(t, a, b):
    """Whether ``[a, b]`` holds the larger root of ``x^2 - t x + 1`` (``t >
    2``), checked exactly: the root lies right of the vertex ``t / 2``,
    where the quadratic rises through zero."""
    def p(x):
        return x * x - t * x + 1

    return (a <= t / 2 or p(a) <= 0) and b >= t / 2 and p(b) >= 0


def printed_interval(text):
    """The decimal ``text`` plus or minus one unit in its last place."""
    unit = Fraction(1, 10 ** len(text.split(".")[1]))
    return Fraction(text) - unit, Fraction(text) + unit


def assert_the_bounds_answer(epsilon, tmp_path, capsys):
    """Check that the recipe on ``tiny_edge(epsilon)``, through the library
    and ``penner recipe``, and every row of ``penner limit`` bracket the
    larger root of ``x^2 - (2 + (k epsilon)^2) x + 1``; returns the path of
    the matrix file."""
    omega, word = tiny_edge(epsilon)
    result = run_recipe(omega, word, digits=50)
    assert (result.k_star, result.degree) == (1, 2)
    pf = pf_eigenvalue(result.charpoly, 50, twist_product(omega, word))
    assert pf.value == result.lam
    value, error = map(penner.spectral._mpf_to_fraction, pf)
    assert holds_the_larger_root(2 + epsilon**2, value - error, value + error)
    path = tmp_path / "omega.json"
    path.write_text(json.dumps({"entries": [[0, str(epsilon)], [str(epsilon), 0]]}))
    assert main(["recipe", "--omega", str(path), "--gamma", "1,2", "--json"]) == 0
    recipe = json.loads(capsys.readouterr().out)
    assert recipe["degree"] == 2
    assert holds_the_larger_root(2 + epsilon**2, *printed_interval(recipe["lambda"]))
    assert main(["limit", "--omega", str(path), "--gamma", "1,2", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows
    for row in rows:
        assert holds_the_larger_root(2 + (row["k"] * epsilon) ** 2,
                                     *printed_interval(row["lambda"]))
    return path


@pytest.mark.parametrize("exponent", [33, 56, 60])
def test_the_bounds_answer_where_newtons_answer_fails(exponent, tmp_path, capsys, monkeypatch):
    # At 10^-56 and 10^-60 Newton's error is wider than lambda - 1/lambda,
    # about 2 epsilon, so its interval holds both roots; at 10^-33 Newton
    # ends outside [lo, hi].  The bounds then answer alone, without
    # locating a root, through the library and both commands.
    located = count_calls(monkeypatch, penner.spectral, "_durand_kerner")
    assert_the_bounds_answer(Fraction(1, 10**exponent), tmp_path, capsys)
    assert located == []


@pytest.mark.parametrize("exponent", [66, 67, 68, 70])
def test_a_derivative_that_rounds_to_zero_is_no_crash(exponent, tmp_path, capsys, monkeypatch):
    # Newton's first run meets a derivative that rounds to 0, and the bounds,
    # 10^-(2 exponent) apart, round at digits + 15 to a midpoint of exactly
    # 1, whose interval holds 1/lambda too; rounded once more, at the
    # bounds' own precision, the midpoint answers, again without locating a
    # root.  `degree` holds no product and still reports the root locator's
    # failure, one line and exit 3 (ROADMAP item 18).
    located = count_calls(monkeypatch, penner.spectral, "_durand_kerner")
    path = assert_the_bounds_answer(Fraction(1, 10**exponent), tmp_path, capsys)
    assert located == []
    message = "dominant eigenvalue is not a simple real eigenvalue"
    assert main(["degree", "--omega", str(path), "--gamma", "1,2", "--json"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_collatz_wielandt_matches_the_fraction_reference_on_the_catalog():
    for cid in catalog_ids():
        for k in (1, 3, 27, 243):
            omega = scale(catalog_get(cid).omega, k)
            for root in (1, 2):
                m = twist_product(omega, tour_word(omega, root))
                assert collatz_wielandt(m, 50) == collatz_wielandt_reference(m, 50), (cid, k, root)


@st.composite
def positive_diagonal_matrices(draw):
    """A square nonnegative rational matrix on at most six rows with a
    positive diagonal."""
    n = draw(st.integers(1, 6))
    return tuple(tuple(draw(_weights) if i == j or draw(st.booleans()) else 0
                       for j in range(n)) for i in range(n))


@settings(max_examples=100, deadline=None)
@given(positive_diagonal_matrices(), st.sampled_from([5, 15, 50]))
def test_collatz_wielandt_matches_the_fraction_reference(m, digits):
    assert collatz_wielandt(m, digits) == collatz_wielandt_reference(m, digits)


_coefficients = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 1, 2, 3, 4, 6, 7]))
_dyadics = st.builds(lambda man, exp: mp.mpf((man, exp)),
                     st.integers(-2**20, 2**20), st.integers(-30, 4))


@settings(max_examples=300, deadline=None)
@given(st.lists(_coefficients, min_size=1, max_size=8), _dyadics,
       _dyadics.map(abs))
@example([Fraction(-3, 2), Fraction(5, 2), Fraction(1)], mp.mpf(1), mp.mpf(0.5))  # 1/2 a root
@example([Fraction(-1, 4), Fraction(1)], mp.mpf(0.25), mp.mpf(0))  # a zero error at the root
@example([Fraction(-1, 3), Fraction(1)], mp.mpf(0.25), mp.mpf(0))  # a zero error off it
def test_brackets_root_matches_rational_evaluation(coeffs, value, error):
    p = Poly(coeffs)
    v, e = map(penner.spectral._mpf_to_fraction, (value, error))
    assert brackets_root(p, value, error) == (p(v - e) * p(v + e) <= 0)
