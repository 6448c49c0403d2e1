"""Tests for factorization over the integers and the rationals, degree
certification of the leading eigenvalue, and the convergence diagnostic."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from penner import (
    IntersectionMatrix,
    Poly,
    TwistWord,
    convergence_diagnostic,
    degree_of_pf_root,
    factor_monic,
    pf_eigenvalue,
    ray_convergence_experiment,
    scale,
    spectral_report,
)
import penner.factor
import penner.spectral
from penner.catalog import catalog_get
from penner.errors import NotPerronFrobenius, NotSupported
from penner.factor import deflate, is_irreducible
from penner.graphs import graph_of, spanning_tree_tour
from penner.spectral import trace_polynomial, unfold

from conftest import count_calls, general_word, random_omega


def test_factor_monic_splits_product():
    p = Poly([1, 1]) * Poly([-1, 1]) * Poly([-1, 1])
    fz = factor_monic(p)
    assert fz.factors == ((Poly([-1, 1]), 2), (Poly([1, 1]), 1))
    assert fz.product() == p


def test_factor_monic_over_the_rationals():
    # (x - 1/2)(x - 2): sympy returns the primitive factors 2x - 1 and x - 2
    p = Poly([Fraction(-1, 2), 1]) * Poly([-2, 1])
    fz = factor_monic(p)
    assert fz.factors == ((Poly([-2, 1]), 1), (Poly([Fraction(-1, 2), 1]), 1))
    assert fz.product() == p


def test_factor_monic_rejects_nonmonic():
    with pytest.raises(ValueError):
        factor_monic(Poly([1, 2]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_factorization_certified_roundtrip(seed):
    rng = random.Random(seed)
    parts = []
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(1, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(deg)] + [1]
        parts.append(Poly(coeffs))
    p = Poly([1])
    for q in parts:
        p = p * q
    fz = factor_monic(p)
    assert fz.product() == p


# ---------------------------------------------------------------------------
# palindromic input: factored on the trace polynomial, against sympy on the
# whole polynomial
# ---------------------------------------------------------------------------

def sympy_factors(p):
    """sympy's ``factor_list`` of the whole ``p`` over the rationals, each
    factor made monic, sorted by (degree, coefficients)."""
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(p.coeffs))
    out = []
    for f, e in sympy.factor_list(expr, x)[1]:
        monic = sympy.Poly(f, x).monic()
        out.append((Poly([Fraction(int(c.p), int(c.q))
                          for c in reversed(monic.all_coeffs())]), e))
    return tuple(sorted(out, key=lambda fe: (fe[0].degree, fe[0].coeffs)))


def factor_palindrome(p):
    """``factor_monic(p)`` checked against :func:`sympy_factors`; returns
    the degrees of the inputs the package handed to sympy."""
    assert trace_polynomial(p) is not None
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, penner.factor, "_sympy_factors")
        fz = factor_monic(p)
    assert fz.factors == sympy_factors(p)
    return [q.degree for (q,) in calls]


_small_ints = st.integers(-6, 6)
_small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def monic(coeffs):
    return Poly(list(coeffs) + [1])


def power(p, e):
    out = Poly([1])
    for _ in range(e):
        out = out * p
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(_small_ints, min_size=1, max_size=7))
def test_factor_monic_unfolding_over_zz(coeffs):
    g = monic(coeffs)
    assert factor_palindrome(unfold(g))[0] == g.degree


@settings(max_examples=40, deadline=None)
@given(st.lists(_small_fractions, min_size=1, max_size=5)
       .filter(lambda cs: any(c.denominator > 1 for c in cs)))
def test_factor_monic_unfolding_over_qq(coeffs):
    g = monic(coeffs)
    assert factor_palindrome(unfold(g))[0] == g.degree


@settings(max_examples=30, deadline=None)
@given(st.lists(_small_ints, min_size=1, max_size=4), st.sampled_from([1, -1]))
def test_factor_monic_split_unfolding_takes_the_fallback(middle, h0):
    # G = h h* / h(0), h irreducible and not reciprocal: the trace factor g
    # has g(2) g(-2) a square, and G itself goes to sympy
    h = monic([h0] + middle)
    mirror = Poly([c * h0 for c in reversed(h.coeffs)])
    assume(mirror != h and is_irreducible(h))
    assert factor_palindrome(h * mirror) == [h.degree, 2 * h.degree]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.lists(_small_ints, min_size=1, max_size=3),
                          st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_monic_palindrome_with_repeated_factors(parts):
    p = Poly([1])
    for coeffs, e in parts:
        p = p * power(unfold(monic(coeffs)), e)
    factor_palindrome(p)


@settings(max_examples=30, deadline=None)
@given(st.lists(_small_ints, min_size=0, max_size=4), st.integers(0, 2),
       st.integers(0, 2))
def test_factor_monic_palindrome_with_small_cyclotomic_factors(coeffs, a, b):
    # (x + 1)^2 = unfold(y + 2) and x^2 - x + 1 = unfold(y - 1)
    p = (power(Poly([1, 2, 1]), a) * power(Poly([1, -1, 1]), b)
         * (unfold(monic(coeffs)) if coeffs else Poly([1])))
    assume(p.degree > 0)
    factor_palindrome(p)


def test_factor_monic_unit_root_pairs():
    assert factor_palindrome(Poly([1, 2, 1])) == [1, 2]  # (x + 1)^2
    assert factor_monic(Poly([1, 2, 1])).factors == ((Poly([1, 1]), 2),)
    assert factor_palindrome(Poly([1, -1, 1])) == [1]  # irreducible


def test_factor_monic_rational_palindrome_takes_the_fallback():
    # x^2 - 5/2 x + 1 = (x - 2)(x - 1/2): g = y - 5/2, g(2) g(-2) = 9/4
    assert factor_palindrome(Poly([1, Fraction(-5, 2), 1])) == [1, 2]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_s43max_is_factored_on_its_trace_polynomial(k, monkeypatch):
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    report = spectral_report(scale(entry.omega, k), TwistWord(tour, (1,) * len(tour)))
    degrees = []
    real = sympy.Poly.factor_list

    def spied(self, *args, **kwargs):
        degrees.append(self.degree())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "factor_list", spied)
    degree, minpoly, fz = degree_of_pf_root(report)
    assert degrees == [12]
    assert (degree, minpoly) == (24, report.reduced)
    assert fz.factors == ((report.reduced, 1),)


def test_fixture_sextic_irreducible():
    p = Poly([1, 1, -1, 0, -1, -3, 1])  # x^6 - 3x^5 - x^4 - x^2 + x + 1
    assert is_irreducible(p)
    lam = pf_eigenvalue(p, digits=50)
    assert abs(lam.value - mp.mpf("3.318022")) < 1e-5


def test_fixture_quintic_irreducible():
    p = Poly([-1, -1, 1, -1, -3, 1])  # x^5 - 3x^4 - x^3 + x^2 - x - 1
    assert is_irreducible(p)
    lam = pf_eigenvalue(p, digits=50)
    assert abs(lam.value - mp.mpf("3.251034")) < 1e-5


def test_degree_of_pf_root_triangle(omega3):
    rep = spectral_report(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    degree, minpoly, fz = degree_of_pf_root(rep)
    assert degree == 3
    assert minpoly == Poly([-1, 5, -7, 1])


def test_degree_of_pf_root_picks_right_factor(monkeypatch):
    # (x^2 - 3x + 1)(x - 2): leading root (3+sqrt(5))/2 ~ 2.618 belongs to
    # the quadratic factor even though x - 2 has a root nearby
    p = Poly([1, -3, 1]) * Poly([-2, 1])
    lam = pf_eigenvalue(p, digits=50)

    class FakeReport:
        reduced = p
        pf_value = lam.value
        pf_error = lam.error
        digits = 50

    refinements = count_calls(monkeypatch, penner.spectral, "refine_real_root")
    degree, minpoly, _ = degree_of_pf_root(FakeReport())
    assert degree == 2 and minpoly == Poly([1, -3, 1])
    assert refinements == []


class IrreducibleReport:
    """A certified report whose eigenvalue must not be read."""

    reduced = Poly([-1, 5, -7, 1])  # x^3 - 7x^2 + 5x - 1, irreducible
    digits = 50

    @property
    def pf_value(self):
        raise AssertionError("pf_value read for an irreducible reduced polynomial")


def test_degree_of_irreducible_reduced_needs_no_eigenvalue():
    degree, minpoly, fz = degree_of_pf_root(IrreducibleReport())
    assert degree == 3 and minpoly == IrreducibleReport.reduced
    assert fz.factors == ((IrreducibleReport.reduced, 1),)


def test_degree_of_pf_root_rejects_uncertified_report(monkeypatch):
    # no report exists for a disconnected omega, so the degree pipeline
    # stops at spectral_report and never factors anything
    calls = count_calls(monkeypatch, penner.factor, "factor_monic")
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(NotPerronFrobenius):
        degree_of_pf_root(spectral_report(om, TwistWord((1, 2, 3), (1, 1, 1))))
    assert calls == []


def test_deflate_quadratic():
    # (x - 2)(x - 1) deflated at 2 leaves x - 1
    q = deflate(Poly([2, -3, 1]), mp.mpf(2), digits=30)
    assert abs(q[0] + 1) < 1e-20 and abs(q[1] - 1) < 1e-20


def test_convergence_diagnostic_triangle(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    table = ray_convergence_experiment(omega3, word, (1, 2, 4, 8, 16, 32), digits=50)
    assert table.limit == Poly([0, 1, 1])
    rep = convergence_diagnostic(table, digits=50)
    dists = [row.distance for row in table.rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert rep.lambdas_increasing
    # the root near -1 always lies in the same irreducible factor as lambda
    assert len(rep.factor_agreement) == 6
    for agreement in rep.factor_agreement:
        assert len(agreement) == 1 and all(agreement.values())


def test_convergence_diagnostic_rejects_unsupported_table(divergent4):
    table = ray_convergence_experiment(divergent4, TwistWord((1, 2, 3, 4), (1, 1, 1, 1)),
                                       (16, 32), digits=30)
    assert not table.supported
    with pytest.raises(NotSupported, match="supported path"):
        convergence_diagnostic(table)
