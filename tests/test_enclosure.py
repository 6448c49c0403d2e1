"""Tests for the Collatz-Wielandt enclosure of the leading eigenvalue of a
twist product (``core.collatz_wielandt``) and for the eigenvalue that
``spectral.pf_eigenvalue`` reads from it when it is given the product: the
exact bounds hold the leading eigenvalue by sympy's exact arithmetic, the
eigenvalue is bit-identical to the one located among all roots, and where
the iteration stalls the answer and the failure are those of the roots."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

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
from penner.core import collatz_wielandt
from penner.errors import NotPerronFrobenius
from penner.graphs import spanning_tree_tour
from penner.spectral import strip_unit_root, twist_charpoly

X = sympy.Symbol("x")


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def tour_word(omega, root):
    tour = spanning_tree_tour(graph_of(omega), root=root)
    return TwistWord(tour, (1,) * len(tour))


def product_and_reduced(omega, word):
    """The twist product and its reduced characteristic polynomial."""
    m = twist_product(omega, word)
    return m, strip_unit_root(twist_charpoly(omega, word, m))[1]


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
    pf = pf_eigenvalue(reduced, 50, m)
    assert len(starts) == 2  # the second from the root that all_roots located
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
    # A known defect: pf_eigenvalue's Newton error estimate ignores the
    # rounding of p(x), and the exact bracket then fails on this certified
    # product.  The fallback keeps that failure as it is.
    omega, word = tiny_edge(Fraction(1, 10**20))
    assert collatz_wielandt(twist_product(omega, word), 50) is None
    with pytest.raises(NotPerronFrobenius) as info:
        run_recipe(omega, word, digits=50)
    assert str(info.value) == "leading eigenvalue 1.0 +- 1.0e-55 does not enclose a root"
