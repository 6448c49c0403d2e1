"""Factorization over the integers or the rationals and degree certification
of the leading eigenvalue.

``factor_monic`` factors a monic polynomial with integer or rational
coefficients into monic irreducible factors (delegated to sympy's
Zassenhaus/LLL machinery) and certifies the result by exact
re-multiplication.  ``degree_of_pf_root`` then identifies the unique
irreducible factor vanishing at the leading eigenvalue: the algebraic degree
of the stretch factor is the degree of that factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import TYPE_CHECKING, Dict, Tuple

import mpmath as mp

from .errors import AmbiguousRootAssignment, NotSupported
from .spectral import (
    DEFAULT_DIGITS,
    Poly,
    SpectralReport,
    all_roots,
    brackets_root,
    synthetic_division,
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


def factor_monic(p: Poly) -> Factorization:
    """Factor a monic polynomial into monic factors irreducible over the
    rationals: by sympy over ZZ if every coefficient is an integer, else over
    QQ (the rule of :func:`~penner.spectral.char_poly_exact`).  The factor
    list is certified by exact re-multiplication; factors are sorted by
    (degree, coefficients) for determinism.
    """
    if not p.is_monic:
        raise ValueError("factor_monic requires a monic polynomial")
    if p.degree < 1:
        raise ValueError("factor_monic requires degree >= 1")
    import sympy  # on first use, like spectral._domain_matrix

    integral = all(isinstance(c, int) for c in p.coeffs)
    spoly = sympy.Poly(list(p.leading_first()), sympy.Symbol("x"),
                       domain="ZZ" if integral else "QQ")
    factors = []
    for f, e in spoly.factor_list()[1]:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
        factors.append((Poly([c / coeffs[-1] for c in coeffs]), int(e)))
    factors.sort(key=lambda fe: (fe[0].degree, fe[0].coeffs))
    result = Factorization(tuple(factors))
    if result.product() != p:  # pragma: no cover - sympy returned bad factors
        raise ArithmeticError("factorization failed certification")
    return result


def is_irreducible(p: Poly) -> bool:
    fz = factor_monic(p)
    return len(fz.factors) == 1 and fz.factors[0][1] == 1


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
    """Coefficients (constant first) of ``p(x) / (x - lam)`` by synthetic
    division, dropping the remainder."""
    with mp.workdps(digits + 10):
        quotient, _remainder = synthetic_division(p.mpf_coeffs(), lam)
        return tuple(reversed(quotient))


def deflated_distance(
    u: Poly, lam: mp.mpf, limit: Poly, digits: int = DEFAULT_DIGITS
) -> Tuple[mp.mpf, Tuple[mp.mpf, ...]]:
    """``(distance, deflated)``: the coefficients of ``u(x) / (x - lam)``
    (see :func:`deflate`) as ``deflated``, and as ``distance`` their
    sup-distance to the coefficients of ``limit``, the shorter list padded
    with zeros."""
    defl = deflate(u, lam, digits)
    with mp.workdps(digits + 10):
        target = limit.mpf_coeffs()[::-1]
        dist = max(abs(a - b)
                   for a, b in zip_longest(defl, target, fillvalue=mp.mpf(0)))
    return dist, defl


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
