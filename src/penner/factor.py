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
from typing import Dict, Sequence, Tuple

import mpmath as mp

from .errors import AmbiguousRootAssignment, RootMismatch
from .spectral import (
    DEFAULT_DIGITS,
    Poly,
    SpectralReport,
    all_roots,
    brackets_root,
    synthetic_division,
)


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

    Returns ``(degree, minimal_polynomial, factorization)``.  When the report
    is certified Perron-Frobenius and the reduced polynomial is irreducible,
    the exact factorization is the whole certificate: the leading eigenvalue
    is a root of the reduced polynomial, which is then its minimal
    polynomial, so no numerics are needed and ``report.pf_value`` is not
    read.  Otherwise the factor is the one that changes sign, exactly (see
    :func:`~penner.spectral.brackets_root`), on the report's enclosure
    ``[pf_value - pf_error, pf_value + pf_error]``; if not exactly one factor does,
    :class:`AmbiguousRootAssignment` is raised.  A report that is not
    Perron-Frobenius raises :class:`RootMismatch`.
    """
    reduced = report.reduced
    fz = factor_monic(reduced)
    if fz.factors == ((reduced, 1),) and report.is_pf:
        return reduced.degree, reduced, fz
    lam = report.pf_value
    if lam is None:
        raise RootMismatch("report carries no leading eigenvalue")
    owners = [f for f, _e in fz.factors if brackets_root(f, lam, report.pf_error)]
    if len(owners) != 1:
        raise AmbiguousRootAssignment(
            "could not isolate the leading eigenvalue inside a unique factor"
        )
    return owners[0].degree, owners[0], fz


# ---------------------------------------------------------------------------
# convergence diagnostics for families of characteristic polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceRow:
    scale: object
    lam: mp.mpf
    distance: mp.mpf
    deflated: Tuple[mp.mpf, ...]
    factor_agreement: Dict[complex, bool]


@dataclass(frozen=True)
class ConvergenceReport:
    rows: Tuple[ConvergenceRow, ...]
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
    sequence: Sequence[Tuple[object, Poly, mp.mpf]],
    limit: Poly,
    tol: float = 1e-8,
    digits: int = DEFAULT_DIGITS,
) -> ConvergenceReport:
    """Diagnose convergence of deflated characteristic polynomials.

    ``sequence`` is a list of ``(scale, u_k, lambda_k)`` with ``u_k`` a monic
    integer polynomial and ``lambda_k`` its leading root; ``limit`` is the
    expected limit of ``u_k(x) / (x - lambda_k)``.

    For each entry the deflated polynomial and its sup-distance to ``limit``
    are computed; for each nonzero root ``theta`` of ``limit``, the row
    records whether the irreducible factor of ``u_k`` owning the root of
    ``u_k`` nearest ``theta`` coincides with the factor owning ``lambda_k``.
    Roots are located by :func:`~penner.spectral.all_roots`.  Raises
    :class:`RootMismatch` if some ``lambda_k`` fails to be a root of ``u_k``
    to tolerance ``tol``, and :class:`~penner.errors.PreconditionViolated`
    if the root finder does not converge.
    """
    with mp.workdps(digits + 10):
        thetas = [t for t in all_roots(limit, digits) if abs(t) > 1e-9]
        rows = []
        lams = []
        for scale_value, u, lam in sequence:
            lam = mp.mpf(lam) if not isinstance(lam, mp.mpf) else lam
            du = u.derivative()
            residual = abs(u(lam)) / max(abs(du(lam)), mp.mpf(1))
            if residual > tol * (1 + abs(lam)):
                raise RootMismatch(
                    f"lambda = {lam} is not a root of the polynomial at scale "
                    f"{scale_value} (residual {residual})"
                )
            dist, defl = deflated_distance(u, lam, limit, digits)
            fz = factor_monic(u)
            lam_factor = min(fz.factors, key=lambda fe: abs(fe[0](lam)))[0]
            agreement: Dict[complex, bool] = {}
            if thetas:
                u_roots = all_roots(u, digits)
                for theta in thetas:
                    nearest = min(u_roots, key=lambda r: abs(r - theta))
                    theta_factor = min(fz.factors,
                                       key=lambda fe: abs(fe[0](nearest)))[0]
                    agreement[complex(theta)] = theta_factor == lam_factor
            rows.append(ConvergenceRow(scale_value, lam, dist, defl, agreement))
            lams.append(lam)
        increasing = all(a < b for a, b in zip(lams, lams[1:]))
        return ConvergenceReport(tuple(rows), increasing)
