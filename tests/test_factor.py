"""Tests for factorization over the integers and the rationals, degree
certification of the leading eigenvalue, and the convergence diagnostic."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from penner import (
    IntersectionMatrix,
    Poly,
    TwistWord,
    convergence_diagnostic,
    degree_of_pf_root,
    factor_monic,
    pf_eigenvalue,
    ray_convergence_experiment,
    spectral_report,
)
import penner.factor
import penner.spectral
from penner.errors import NotPerronFrobenius, NotSupported
from penner.factor import deflate, is_irreducible

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
