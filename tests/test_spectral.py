"""Tests for exact characteristic polynomials, ranks, the structure of the
characteristic polynomial of twist products, leading eigenvalues, the
invariant alternating form, and the height function."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from penner import (
    IntersectionMatrix,
    Poly,
    TwistWord,
    char_poly_exact,
    complexity,
    height,
    is_reciprocal,
    pf_certify,
    pf_eigenvalue,
    rank_exact,
    scale,
    spectral_report,
    structure_split,
    symplectic_check,
    twist_product,
)
import penner.spectral
from penner.catalog import catalog_get
from penner.errors import DivisionFailed, NotBipartite, NotPerronFrobenius
from penner.graphs import graph_of, spanning_tree_tour
from penner.spectral import (
    determinant_from_char_poly,
    pf_lower_bound,
    poly_str,
    strip_unit_root,
)

from conftest import count_pf_eigenvalue, general_word, random_omega


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_poly_str():
    assert str(Poly([-1, 5, -7, 1])) == "x^3 - 7*x^2 + 5*x - 1"
    assert str(Poly([0, 1, 1])) == "x^2 + x"


def test_poly_divide_linear():
    p = Poly([-1, 0, 1])  # x^2 - 1
    assert p.divide_linear(1) == (Poly([1, 1]), 0)
    assert p.divide_linear(Fraction(1, 2)) == (Poly([Fraction(1, 2), 1]), Fraction(-3, 4))
    assert Poly([5]).divide_linear(3) == (Poly([0]), 5)


_exact_scalars = st.one_of(st.integers(-10**12, 10**12),
                           st.fractions(max_denominator=10**6))


@settings(max_examples=100, deadline=None)
@given(st.lists(_exact_scalars, min_size=1, max_size=12),
       st.one_of(st.integers(-50, 50), st.fractions(max_denominator=100)))
def test_divide_linear_matches_sympy(coeffs, r):
    # oracle: sympy's division by x - r over QQ
    x = sympy.Symbol("x")
    p = Poly(coeffs)
    quotient, remainder = p.divide_linear(r)
    sq, sr = sympy.div(
        sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in p.leading_first()], x, domain=QQ),
        sympy.Poly(x - sympy.Rational(r.numerator, r.denominator), x, domain=QQ))
    assert quotient == Poly([Fraction(int(c.p), int(c.q)) for c in reversed(sq.all_coeffs())])
    assert remainder == Fraction(int(sr.LC().p), int(sr.LC().q))
    assert p(r) == remainder


def test_poly_mul():
    assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])
    assert Poly([0, 1]) * Poly([1, 1]) == Poly([0, 1, 1])


def test_poly_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        Poly([1, 0.5])
    with pytest.raises(TypeError):
        Poly([mp.mpf(1)])


def test_poly_mpf_coeffs_leading_first():
    with mp.workdps(30):
        cs = Poly([Fraction(1, 3), 0, 2]).mpf_coeffs()
        assert cs == [mp.mpf(2), mp.mpf(0), mp.mpf(1) / 3]
        assert all(isinstance(c, mp.mpf) for c in cs)


# ---------------------------------------------------------------------------
# characteristic polynomial and rank against an independent oracle
# ---------------------------------------------------------------------------

def s43_tour_product(k):
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    return twist_product(scale(entry.omega, k), TwistWord(tour, (1,) * len(tour)))


def assert_char_poly_matches_determinants(m):
    """``chi(t) == det(t I - M)`` at ``n + 1`` integer points, with the
    determinants from fraction-free Bareiss elimination (sympy's dense
    ``DomainMatrix.det`` over ZZ or QQ; independent of the Berkowitz
    ``charpoly`` under test)."""
    chi = char_poly_exact(m)
    n = len(m)
    assert chi.degree == n and chi.is_monic
    domain = ZZ if all(isinstance(x, int) for row in m for x in row) else QQ
    for t in range(n + 1):
        rows = [[(t if i == j else 0) - x for j, x in enumerate(row)]
                for i, row in enumerate(m)]
        det = DomainMatrix.from_list(rows, domain).det()
        assert chi(t) == Fraction(int(det.numerator), int(det.denominator))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.none())
@example(0, 1)
@example(0, 64)
@example(0, 256)
def test_char_poly_matches_sympy(seed, s43_scale):
    if s43_scale is not None:
        assert_char_poly_matches_determinants(s43_tour_product(s43_scale))
        return
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    integral = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
    assert_char_poly_matches_determinants(integral)
    rational = tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        for _ in range(n)
    )
    assert_char_poly_matches_determinants(rational)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_rank_matches_sympy(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(1, 6), connected=False)
    assert rank_exact(om) == sympy.Matrix(om.entries).rank()


def test_rank_handles_fractions():
    m = ((Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 8)))
    assert rank_exact(m) == 1


# ---------------------------------------------------------------------------
# structure of the characteristic polynomial
# ---------------------------------------------------------------------------

def test_triangle_charpoly(omega3):
    m = twist_product(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    assert char_poly_exact(m) == Poly([-1, 5, -7, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_structure_split_properties(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6))
    word = general_word(om, rng)
    m = twist_product(om, word)
    chi = char_poly_exact(m)
    r = rank_exact(om)
    exponent, reduced = structure_split(chi, r)
    assert exponent == om.n - r
    assert reduced(1) != 0
    assert reduced.degree == r
    # det == 1 and constant coefficient of the reduced polynomial is +-1
    assert determinant_from_char_poly(chi) == 1
    assert reduced.coeffs[0] in (1, -1)
    # complexity equals rank for general words
    assert complexity(reduced) == r
    assert strip_unit_root(chi)[0] >= om.n - r


def test_structure_split_rejects_wrong_rank(omega3):
    m = twist_product(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    chi = char_poly_exact(m)
    with pytest.raises(DivisionFailed):
        structure_split(chi, 1)


# ---------------------------------------------------------------------------
# leading eigenvalue
# ---------------------------------------------------------------------------

def test_pf_eigenvalue_cubic_fixture():
    # largest real root of x^3 - 7x^2 + 5x - 1, verified by exact bisection
    lam = pf_eigenvalue(Poly([-1, 5, -7, 1]), digits=50)
    assert abs(lam.value - mp.mpf("6.2222625231203986")) < 1e-12
    assert lam.error < 1e-40


def test_pf_certify_and_lower_bound(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    assert pf_certify(omega3, word)
    m = twist_product(omega3, word)
    lam = pf_eigenvalue(m)
    assert lam.value >= pf_lower_bound(omega3)


def mpf_fraction(x):
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def test_s43_enclosure_is_proven_at_k27():
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    rep = spectral_report(scale(entry.omega, 27), TwistWord(tour, (1,) * len(tour)),
                          digits=50)
    lam, err = mpf_fraction(rep.pf_value), mpf_fraction(rep.pf_error)
    lo, hi = rep.reduced(lam - err), rep.reduced(lam + err)
    assert isinstance(lo, Fraction) and lo * hi < 0


def test_pf_eigenvalue_rejects_an_enclosure_without_a_root(monkeypatch):
    real = penner.spectral.refine_real_root

    def off_by_one(p, x0, digits):
        pf = real(p, x0, digits)
        return pf._replace(value=pf.value + 1)

    monkeypatch.setattr(penner.spectral, "refine_real_root", off_by_one)
    with pytest.raises(NotPerronFrobenius, match="does not enclose a root"):
        pf_eigenvalue(Poly([-1, 5, -7, 1]), 30)


def test_pf_eigenvalue_root_finding_failure(monkeypatch):
    def fail(*_args, **_kwargs):
        raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300")

    monkeypatch.setattr(mp, "polyroots", fail)
    with pytest.raises(NotPerronFrobenius, match="root finding failed"):
        pf_eigenvalue(Poly([-1, 5, -7, 1]), 30)


def test_pf_rejects_identity():
    with pytest.raises(NotPerronFrobenius):
        pf_eigenvalue(((1, 0), (0, 1)))


def test_disconnected_graph_not_certified():
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert not pf_certify(om, TwistWord((1, 2, 3), (1, 1, 1)))


def test_spectral_report(omega3):
    rep = spectral_report(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    assert rep.rank == 3 and rep.unit_exponent == 0
    assert rep.is_pf and rep.pf_value is not None
    assert rep.complexity == 3


def test_spectral_report_computes_lambda_once_on_demand(omega3, monkeypatch):
    calls = count_pf_eigenvalue(monkeypatch)
    rep = spectral_report(omega3, TwistWord((1, 2, 3), (1, 1, 1)), digits=40)
    assert calls == []
    lam = rep.pf_value
    assert rep.pf_value is lam and rep.pf_error is not None
    assert len(calls) == 1
    assert lam == pf_eigenvalue(rep.reduced, 40).value


def test_uncertified_report_never_computes_lambda(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("pf_eigenvalue called for an uncertified report")

    monkeypatch.setattr(penner.spectral, "pf_eigenvalue", refuse)
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    rep = spectral_report(om, TwistWord((1, 2, 3), (1, 1, 1)))
    assert not rep.is_pf
    assert rep.pf_value is None and rep.pf_error is None


# ---------------------------------------------------------------------------
# invariant alternating form (bipartite case)
# ---------------------------------------------------------------------------

def bipartite_omega(rng, a, b, max_entry=3):
    rows = [[0] * (a + b) for _ in range(a + b)]
    for i in range(a):
        for j in range(a, a + b):
            v = rng.randint(0, max_entry)
            rows[i][j] = rows[j][i] = v
    # superimpose a connected zigzag: L_i - R_(i mod b) and R_j - L_((j+1) mod a)
    for i in range(a):
        j = a + (i % b)
        if rows[i][j] == 0:
            rows[i][j] = rows[j][i] = 1
    for j in range(a, a + b):
        i = (j - a + 1) % a
        if rows[i][j] == 0:
            rows[i][j] = rows[j][i] = 1
    return IntersectionMatrix(tuple(tuple(r) for r in rows))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_symplectic_and_reciprocal(seed):
    rng = random.Random(seed)
    om = bipartite_omega(rng, rng.randint(2, 3), rng.randint(2, 3))
    word = general_word(om, rng)
    m = twist_product(om, word)
    assert symplectic_check(om, m)
    exponent, reduced = structure_split(char_poly_exact(m), rank_exact(om))
    assert is_reciprocal(reduced)


def test_symplectic_rejects_odd_cycle(omega3):
    m = twist_product(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    with pytest.raises(NotBipartite):
        symplectic_check(omega3, m)


# ---------------------------------------------------------------------------
# height function
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_height_increment_identity(seed):
    # h(Q_i v) - h(v) == ||Q_i v - v||^2 exactly over the rationals
    from penner import generator
    from penner.core import mat_vec

    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6), connected=False)
    i = rng.randint(1, om.n)
    v = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(om.n))
    qv = mat_vec(generator(om, i), v)
    lhs = height(om, qv) - height(om, v)
    rhs = sum((a - b) ** 2 for a, b in zip(qv, v))
    assert lhs == rhs
