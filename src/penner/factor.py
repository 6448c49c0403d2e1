"""Factorization over the rationals and degree certification of the leading
eigenvalue.

``factor_monic`` factors a monic polynomial with integer or rational
coefficients into monic irreducible factors and certifies the result by
exact re-multiplication.  A palindromic polynomial of even degree is
factored on its half-degree trace polynomial, whose factors unfold back by
an exact irreducibility test.  Each polynomial to factor is first put to
the degree-pattern certificate (:func:`_proves_irreducible`): if ``f`` is
monic with coefficients in ``Z_(p)`` and squarefree modulo ``p``, the
degree of every rational factor of ``f`` is a sum of degrees of distinct
irreducible factors of ``f`` modulo ``p``, so if these subset sums share no
value in ``1 .. deg f - 1`` over the primes tried, ``f`` is irreducible.
Only a polynomial the certificate cannot prove irreducible goes to sympy's
Zassenhaus/LLL machinery (:func:`~penner.spectral.sympy_factors`): a
reducible one, or one such as ``x^4 + 1`` that is reducible modulo every
prime.  ``degree_of_pf_root`` then identifies the unique irreducible factor
vanishing at the leading eigenvalue: the algebraic degree of the stretch
factor is the degree of that factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Tuple

import mpmath as mp

from .core import Scalar
from .errors import AmbiguousRootAssignment, NotSupported
from .modp import ddf_degrees, residues
from .spectral import (
    DEFAULT_DIGITS,
    Poly,
    SpectralReport,
    all_roots,
    brackets_root,
    synthetic_division,
    sympy_factors,
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
        return math.prod((f for f, e in self.factors for _ in range(e)), start=Poly([1]))


# ---------------------------------------------------------------------------
# the degree-pattern certificate
# ---------------------------------------------------------------------------

#: The primes of :func:`_proves_irreducible`: the first 40 odd primes, 3 to
#: 179.  On the spanning-tree tour of every catalog entry from every root,
#: at k = 1, 2, 3, 27 and 243, the reduced polynomial (or its trace
#: polynomial) was proven irreducible within the first 4 primes in the
#: median and the first 19 at most (S43-max, root 1, k = 243).  The S43-max
#: tour from root 21 at k = 3 needs 15, so a budget of 12 would leave it to
#: sympy.
PATTERN_PRIMES = tuple(p for p in range(3, 180, 2)
                       if all(p % d for d in range(3, math.isqrt(p) + 1, 2)))


def _proves_irreducible(q: Poly) -> bool:
    """Whether the Frobenius degree patterns of the monic ``q`` modulo the
    :data:`PATTERN_PRIMES` prove it irreducible over the rationals.

    The lemma (Musser, *J. ACM* 1978): let ``q = g h`` with ``g`` and ``h``
    monic and rational.  For a prime ``p`` that divides no denominator of
    ``q``, Gauss's lemma over ``Z_(p)`` puts ``g`` and ``h`` in
    ``Z_(p)[x]``, so ``q = g h`` modulo ``p`` with the degrees kept.  If
    ``q`` is squarefree modulo ``p``, the irreducible factors of ``g``
    modulo ``p`` are distinct irreducible factors of ``q`` modulo ``p``,
    and ``deg g`` is a sum of a subset of their degrees
    (:func:`~penner.modp.ddf_degrees`).  A degree in ``1 .. deg q - 1``
    that no prime admits is the degree of no factor.  Each prime counts
    against the budget, whether it divides a denominator, leaves ``q`` with
    a repeated factor or is used; a polynomial with a repeated factor is
    never squarefree and so runs through the budget and is not proven.
    """
    possible = (1 << q.degree) - 2  # bit d: a factor of degree d may exist
    for prime in PATTERN_PRIMES:
        if not possible:
            break
        f = residues(q.coeffs, prime)
        degrees = None if f is None else ddf_degrees(f, prime)
        if degrees is not None:
            sums = 1
            for d in degrees:
                sums |= sums << d
            possible &= sums
    return not possible


def _irreducible_factors(q: Poly) -> List[Tuple[Poly, int]]:
    """The irreducible factors of the monic ``q``, made monic: ``[(q, 1)]``
    when :func:`_proves_irreducible` proves it, else sympy's
    (:func:`~penner.spectral.sympy_factors`)."""
    if _proves_irreducible(q):
        return [(q, 1)]
    return sympy_factors(q, squarefree=False)


def _is_rational_square(q: Scalar) -> bool:
    q = Fraction(q)
    return q >= 0 and all(math.isqrt(v) ** 2 == v
                          for v in (q.numerator, q.denominator))


def factor_monic(p: Poly) -> Factorization:
    """Factor a monic polynomial into monic factors irreducible over the
    rationals (see :func:`_irreducible_factors`): a polynomial that the
    Frobenius degree patterns prove irreducible (:func:`_proves_irreducible`)
    is its own factor, and only one they cannot prove irreducible, such as
    a reducible one or ``x^4 + 1``, is factored by sympy.  The factor list
    is certified by exact re-multiplication; factors are sorted by (degree,
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
    if p.coeffs[-1] != 1:
        raise ValueError("factor_monic requires a monic polynomial")
    if p.degree < 1:
        raise ValueError("factor_monic requires degree >= 1")
    trace = trace_polynomial(p)
    if trace is None:
        factors = _irreducible_factors(p)
    else:
        factors = []
        for g, e in _irreducible_factors(trace):
            unfolded = unfold(g)
            if _is_rational_square(g(2) * g(-2)):
                factors += [(h, e * eh) for h, eh in _irreducible_factors(unfolded)]
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
