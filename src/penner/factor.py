"""Factorization over the integers or the rationals and degree certification
of the leading eigenvalue.

``factor_monic`` factors a monic polynomial with integer or rational
coefficients into monic irreducible factors (delegated to sympy's
Zassenhaus/LLL machinery; a palindromic polynomial of even degree is
factored on its half-degree trace polynomial, whose factors unfold back by
an exact irreducibility test) and certifies the result by exact
re-multiplication.  ``degree_of_pf_root`` then identifies the unique
irreducible factor vanishing at the leading eigenvalue: the algebraic degree
of the stretch factor is the degree of that factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING, Dict, List, Tuple

import mpmath as mp

from .core import Scalar
from .errors import AmbiguousRootAssignment, NotSupported
from .spectral import (
    DEFAULT_DIGITS,
    Poly,
    SpectralReport,
    all_roots,
    brackets_root,
    synthetic_division,
    trace_polynomial,
    unfold,
)

if TYPE_CHECKING:
    from .boundary import RayTable


@dataclass(frozen=True)
class Factorization:
    """Irreducible factorization ``product(f^e) = input`` over the rationals."""

    factors: Tuple[Tuple[Poly, int], ...]

    def product(self) -> Poly:
        out = Poly([1])
        for f, e in self.factors:
            for _ in range(e):
                out = out * f
        return out


def _sympy_factors(p: Poly) -> List[Tuple[Poly, int]]:
    """sympy's irreducible factors of ``p``, made monic: over ZZ if every
    coefficient is an integer, else over QQ (the rule of
    :func:`~penner.spectral.char_poly_exact`)."""
    import sympy  # on first use, like spectral._domain_matrix

    integral = all(isinstance(c, int) for c in p.coeffs)
    spoly = sympy.Poly(list(p.leading_first()), sympy.Symbol("x"),
                       domain="ZZ" if integral else "QQ")
    factors = []
    for f, e in spoly.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        factors.append((Poly([c / coeffs[-1] for c in coeffs]), int(e)))
    return factors


def _is_rational_square(q: Scalar) -> bool:
    q = Fraction(q)
    return q >= 0 and all(math.isqrt(v) ** 2 == v
                          for v in (q.numerator, q.denominator))


def factor_monic(p: Poly) -> Factorization:
    """Factor a monic polynomial into monic factors irreducible over the
    rationals, by sympy (see :func:`_sympy_factors`).  The factor list is
    certified by exact re-multiplication; factors are sorted by (degree,
    coefficients) for determinism.

    A palindromic ``p = x^m T(x + 1/x)`` of even degree ``2m`` is factored
    on its degree-``m`` :func:`~penner.spectral.trace_polynomial` ``T``.
    Each irreducible factor ``g`` of ``T``, of degree ``d`` and multiplicity
    ``e``, gives the factor ``G(x) = x^d g(x + 1/x)`` of ``p`` (see
    :func:`~penner.spectral.unfold`) with multiplicity ``e``, and ``G`` is
    irreducible unless ``g(2) g(-2)`` is the square of a rational; only
    then is ``G`` itself factored.  The test is sound: for a root ``a`` of
    ``G`` and ``b = a + 1/a``, ``[Q(a):Q(b)] <= 2`` and ``b`` has degree
    ``d``, so ``G`` is either irreducible or ``h h* / h(0)`` with ``h`` the
    minimal polynomial of ``a`` and ``h*(x) = x^d h(1/x)``.  In the second
    case ``G(1) G(-1) (-1)^d = (h(1) h(-1) / h(0))^2``, while ``G(1) = g(2)``
    and ``G(-1) = (-1)^d g(-2)``.
    """
    if not p.is_monic:
        raise ValueError("factor_monic requires a monic polynomial")
    if p.degree < 1:
        raise ValueError("factor_monic requires degree >= 1")
    trace = trace_polynomial(p)
    if trace is None:
        factors = _sympy_factors(p)
    else:
        factors = []
        for g, e in _sympy_factors(trace):
            unfolded = unfold(g)
            if _is_rational_square(g(2) * g(-2)):
                factors += [(h, e * eh) for h, eh in _sympy_factors(unfolded)]
            else:
                factors.append((unfolded, e))
    factors.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    result = Factorization(tuple(factors))
    if result.product() != p:  # pragma: no cover - sympy returned bad factors
        raise ArithmeticError("factorization failed certification")
    return result


# ---------------------------------------------------------------------------
# degree of the leading eigenvalue
# ---------------------------------------------------------------------------

def degree_of_pf_root(report: SpectralReport) -> Tuple[int, Poly, Factorization]:
    """Identify the irreducible factor of the reduced characteristic
    polynomial that has the leading eigenvalue as a root.

    Returns ``(degree, minimal_polynomial, factorization)``.  When the
    reduced polynomial is irreducible, the exact factorization is the whole
    certificate: the leading eigenvalue of the certified product is a root
    of the reduced polynomial, which is then its minimal polynomial, so no
    numerics are needed and ``report.pf_value`` is not read.  Otherwise the
    factor is the one that changes sign, exactly (see
    :func:`~penner.spectral.brackets_root`), on the report's enclosure
    ``[pf_value - pf_error, pf_value + pf_error]``; if not exactly one factor does,
    :class:`AmbiguousRootAssignment` is raised.
    """
    reduced = report.reduced
    fz = factor_monic(reduced)
    if fz.factors == ((reduced, 1),):
        return reduced.degree, reduced, fz
    owners = [f for f, _e in fz.factors
              if brackets_root(f, report.pf_value, report.pf_error)]
    if len(owners) != 1:
        raise AmbiguousRootAssignment(
            "could not isolate the leading eigenvalue inside a unique factor"
        )
    return owners[0].degree, owners[0], fz


# ---------------------------------------------------------------------------
# convergence diagnostics for families of characteristic polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """One ``factor_agreement`` per row of the diagnosed table, in order."""

    factor_agreement: Tuple[Dict[complex, bool], ...]
    lambdas_increasing: bool


def deflate(
    p: Poly, lam: mp.mpf, digits: int = DEFAULT_DIGITS
) -> Tuple[mp.mpf, ...]:
    """Coefficients (constant first) of ``p(x) / (x - lam)`` for a root
    ``lam`` of ``p``, dropping the remainder.

    The division runs backward: the reversed polynomial ``x^d p(1/x)`` is
    divided by ``x - 1/lam`` (synthetic division on the coefficients taken
    constant first), and its quotient times ``-1/lam`` is the quotient
    sought, read constant first.  Forward division by ``x - lam`` multiplies
    each rounding error by ``lam`` at every step, which swamps the result
    when ``lam`` is the dominant root; backward division multiplies by
    ``1/lam`` instead.
    """
    with mp.workdps(digits + 10):
        inv = 1 / lam
        quotient, _remainder = synthetic_division(p.mpf_coeffs()[::-1], inv)
        return tuple(-inv * c for c in quotient)


def deflated_distance(
    u: Poly, lam: mp.mpf, limit: Poly, digits: int = DEFAULT_DIGITS
) -> mp.mpf:
    """The sup-distance between the coefficients of ``u(x) / (x - lam)``
    (see :func:`deflate`) and those of ``limit``, the shorter list padded
    with zeros."""
    defl = deflate(u, lam, digits)
    with mp.workdps(digits + 10):
        target = limit.mpf_coeffs()[::-1]
        return max(abs(a - b)
                   for a, b in zip_longest(defl, target, fillvalue=mp.mpf(0)))


def convergence_diagnostic(
    table: RayTable, digits: int = DEFAULT_DIGITS
) -> ConvergenceReport:
    """Diagnose the factor structure along a supported ray.

    ``table`` comes from :func:`~penner.boundary.ray_convergence_experiment`
    on a supported path: each row's ``lam`` is the proven leading root of
    its ``charpoly``, and ``table.limit`` is the limit of the deflated
    polynomials.  For each nonzero root ``theta`` of the limit, a row
    records whether the irreducible factor of ``charpoly`` owning the root
    nearest ``theta`` coincides with the factor owning ``lam``.  Roots are
    located by :func:`~penner.spectral.all_roots`.

    Raises :class:`NotSupported` for a table of an unsupported path, and
    :class:`~penner.errors.PreconditionViolated` if the root finder does
    not converge.
    """
    if not table.supported:
        raise NotSupported("the convergence diagnostic needs a supported path")
    with mp.workdps(digits + 10):
        thetas = [t for t in all_roots(table.limit, digits) if abs(t) > 1e-9]
        agreements = []
        for row in table.rows:
            fz = factor_monic(row.charpoly)
            lam_factor = min(fz.factors, key=lambda fe: abs(fe[0](row.lam)))[0]
            agreement: Dict[complex, bool] = {}
            if thetas:
                u_roots = all_roots(row.charpoly, digits)
                for theta in thetas:
                    nearest = min(u_roots, key=lambda r: abs(r - theta))
                    theta_factor = min(fz.factors,
                                       key=lambda fe: abs(fe[0](nearest)))[0]
                    agreement[complex(theta)] = theta_factor == lam_factor
            agreements.append(agreement)
        lams = [row.lam for row in table.rows]
        increasing = all(a < b for a, b in zip(lams, lams[1:]))
    return ConvergenceReport(tuple(agreements), increasing)
