"""Exact spectral invariants of twist products.

Characteristic polynomials (Berkowitz) and ranks are computed exactly by
sympy's ``DomainMatrix`` over the integers or the rationals, and the leading
eigenvalue numerically to a requested number of digits via mpmath, always
starting from the exact polynomial.

Key structure: for a twist product ``M`` over ``omega`` of rank ``r``, the
characteristic polynomial splits as ``chi(x) = (x - 1)^(n - r) * p(x)`` with
``p`` monic of degree ``r`` and ``p(1) != 0``; for words using every curve
the number of eigenvalues different from 1 (the *complexity*) equals ``r``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath as mp
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from .core import (
    ExactMatrix,
    IntersectionMatrix,
    Scalar,
    TwistWord,
    exact,
    mat_mul,
    twist_product,
)
from .errors import (
    DimensionMismatch,
    DivisionFailed,
    NotBipartite,
    NotPerronFrobenius,
    ValidationError,
)
from .graphs import bipartition, covers_vertices, graph_of, is_connected

DEFAULT_DIGITS = 50
MIN_DIGITS = 5


def check_digits(raw, source: str) -> int:
    """``raw`` as a working precision of at least ``MIN_DIGITS`` digits.

    Raises :class:`ValidationError` naming ``source`` otherwise.
    """
    try:
        digits = int(raw)
    except ValueError:
        raise ValidationError(f"{source} must be an integer, got {raw!r}") from None
    if digits < MIN_DIGITS:
        raise ValidationError(f"{source} must be at least {MIN_DIGITS}, got {digits}")
    return digits


def default_digits() -> int:
    """Working precision in decimal digits; PENNER_PRECISION overrides."""
    raw = os.environ.get("PENNER_PRECISION")
    if raw is None:
        return DEFAULT_DIGITS
    return check_digits(raw, "PENNER_PRECISION")


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Poly:
    """A univariate polynomial with exact coefficients, constant term first.

    Every coefficient passes through :func:`penner.core.exact`, so it is an
    ``int`` or a ``Fraction``; a float or mpf coefficient raises
    ``TypeError``.  Numerical work reaches the coefficients only through
    :meth:`mpf_coeffs`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [exact(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basic structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def leading_first(self) -> Tuple:
        return tuple(reversed(self.coeffs))

    def mpf_coeffs(self) -> List[mp.mpf]:
        """The coefficients, leading first, as mpf at the working precision."""
        return list(map(_to_mpf, reversed(self.coeffs)))

    def __call__(self, x):
        acc = 0 * x  # keep the numeric type of x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        if self.degree == 0:
            return Poly([0])
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- arithmetic (exact) -------------------------------------------------

    def __mul__(self, other: "Poly") -> "Poly":
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        result = Poly([1])
        for _ in range(k):
            result = result * self
        return result

    def divmod_exact(self, divisor: "Poly") -> Tuple["Poly", "Poly"]:
        """Exact polynomial division over the rationals."""
        rem = [Fraction(c) for c in self.coeffs]
        lead = Fraction(divisor.coeffs[-1])
        d = divisor.degree
        if len(rem) - 1 < d:
            return Poly([0]), Poly(rem)
        quot = [Fraction(0)] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            q = rem[top] / lead
            quot[top - d] = q
            if q != 0:
                for j, c in enumerate(divisor.coeffs):
                    rem[top - d + j] -= q * c
        return Poly(quot), Poly(rem)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({self.coeffs!r})"

    def __str__(self):
        return poly_str(self)


def _to_mpf(c: Scalar) -> mp.mpf:
    if isinstance(c, Fraction):
        return mp.mpf(c.numerator) / mp.mpf(c.denominator)
    return mp.mpf(c)


def poly_str(p: Poly, var: str = "x") -> str:
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0 and p.degree > 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = var if k == 1 else f"{var}^{k}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        if c < 0:
            sign = "- " if terms else "-"
        else:
            sign = "+ " if terms else ""
        terms.append(f"{sign}{body}")
    return " ".join(terms) if terms else "0"


X_MINUS_ONE = Poly([-1, 1])


# ---------------------------------------------------------------------------
# characteristic polynomial and rank
# ---------------------------------------------------------------------------

def _domain_matrix(m: ExactMatrix) -> DomainMatrix:
    """``m`` as a sympy ``DomainMatrix`` over ZZ if integral, else over QQ."""
    integral = all(isinstance(x, int) for row in m for x in row)
    return DomainMatrix.from_list([list(row) for row in m], ZZ if integral else QQ)


def char_poly_exact(m: ExactMatrix) -> Poly:
    """The characteristic polynomial ``det(x I - M)``, exactly.

    Berkowitz's division-free algorithm via sympy's ``DomainMatrix`` (over
    ZZ for integer matrices, QQ otherwise); the coefficients come back as
    plain ``int`` / ``Fraction``.
    """
    coeffs = _domain_matrix(m).charpoly()
    return Poly([Fraction(int(c.numerator), int(c.denominator))
                 for c in reversed(coeffs)])


def determinant_from_char_poly(chi: Poly) -> Scalar:
    """``det(M) = (-1)^n * chi(0)``."""
    return exact(chi.coeffs[0] * (-1) ** chi.degree)


def rank_exact(matrix: Union[ExactMatrix, IntersectionMatrix]) -> int:
    """Rank over the rationals, via sympy's ``DomainMatrix``."""
    if isinstance(matrix, IntersectionMatrix):
        matrix = matrix.entries
    return _domain_matrix(matrix).rank()


# ---------------------------------------------------------------------------
# structure of the characteristic polynomial
# ---------------------------------------------------------------------------

def strip_unit_root(p: Poly) -> Tuple[int, Poly]:
    """``(m, q)`` with ``p = (x - 1)^m * q`` and ``q(1) != 0``, exactly."""
    mult = 0
    while p.degree > 0 and p(1) == 0:
        p, _ = p.divmod_exact(X_MINUS_ONE)
        mult += 1
    return mult, p


def structure_split(chi: Poly, rank: int) -> Tuple[int, Poly]:
    """Split ``chi = (x - 1)^(n - rank) * p`` with ``p(1) != 0``.

    Returns ``(n - rank, p)``.  Raises :class:`DivisionFailed` if
    ``(x - 1)^(n - rank)`` does not divide ``chi`` or the reduced polynomial
    still vanishes at 1.
    """
    n = chi.degree
    exponent = n - rank
    if exponent < 0:
        raise DivisionFailed(f"rank {rank} exceeds polynomial degree {n}")
    mult, reduced = strip_unit_root(chi)
    if mult < exponent:
        raise DivisionFailed(
            f"(x - 1)^{exponent} does not divide the characteristic polynomial"
        )
    if mult > exponent:
        raise DivisionFailed("reduced polynomial still vanishes at x = 1")
    return exponent, reduced


def complexity(p: Poly) -> int:
    """Number of roots (with multiplicity) different from 1, exactly."""
    return strip_unit_root(p)[1].degree


def is_reciprocal(p: Poly) -> bool:
    """Whether ``p(x) = ± x^d p(1/x)`` (palindromic up to overall sign)."""
    fwd = p.coeffs
    rev = tuple(reversed(fwd))
    return fwd == rev or fwd == tuple(-c for c in rev)


# ---------------------------------------------------------------------------
# Perron-Frobenius
# ---------------------------------------------------------------------------

def pf_certify(omega: IntersectionMatrix, word: TwistWord) -> bool:
    """Exact criterion: the twist product over ``omega`` is Perron-Frobenius
    iff there are at least two curves, the intersection graph is connected
    and the word uses every curve.  A single curve meets nothing, and its
    twist acts as the identity."""
    word.check_indices(omega.n)
    return (omega.n >= 2 and is_connected(graph_of(omega))
            and covers_vertices(word.gamma, omega.n))


class PFEigenvalue(NamedTuple):
    value: mp.mpf
    error: mp.mpf


def _mpf_to_fraction(x: mp.mpf) -> Fraction:
    """The exact rational value stored in an mpf (no re-rounding)."""
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def brackets_root(p: Poly, value: mp.mpf, error: mp.mpf) -> bool:
    """Whether the exact polynomial ``p`` has a root in
    ``[value - error, value + error]``: its values at the two ends, computed
    over ``Fraction``s, are of opposite sign or zero."""
    v, e = _mpf_to_fraction(value), _mpf_to_fraction(error)
    return p(v - e) * p(v + e) <= 0


def refine_real_root(p: Poly, x0, digits: int) -> PFEigenvalue:
    """Newton-refine a simple real root of an exact polynomial.

    Returns the root to roughly ``digits`` significant digits together with
    an error estimate: the residual-based ``2 |p(x)/p'(x)|``, but never less
    than the stopping tolerance ``10^-(digits+5) * max(1, |x|)``, below which
    the residual is rounding noise.
    """
    with mp.workdps(digits + 15):
        x = mp.mpf(str(x0)) if not isinstance(x0, mp.mpf) else mp.mpf(x0)
        f = p.mpf_coeffs()
        df = p.derivative().mpf_coeffs()
        tol = mp.mpf(10) ** (-(digits + 5))
        for _ in range(200):
            fx = mp.polyval(f, x)
            dfx = mp.polyval(df, x)
            if dfx == 0:
                break
            dx = fx / dfx
            x = x - dx
            if abs(dx) <= tol * max(1, abs(x)):
                break
        err = max(2 * abs(mp.polyval(f, x) / mp.polyval(df, x)),
                  tol * max(1, abs(x)))
        return PFEigenvalue(mp.mpf(x), mp.mpf(err))


def pf_eigenvalue(source: Union[ExactMatrix, Poly], digits: Optional[int] = None) -> PFEigenvalue:
    """The leading (Perron-Frobenius) eigenvalue, to ``digits`` digits.

    ``source`` is either an exact matrix or its exact characteristic
    polynomial.  Eigenvalue 1 is stripped off exactly first (it may occur
    with high multiplicity), then the remaining roots are isolated
    numerically and the dominant one Newton-refined on the exact polynomial.
    The returned ``error`` is proven: the reduced polynomial changes sign on
    ``[value - error, value + error]``, checked over ``Fraction``s.

    Raises :class:`NotPerronFrobenius` if there is no simple dominant real
    eigenvalue strictly greater than 1, or if the sign-change check fails.
    """
    digits = default_digits() if digits is None else digits
    chi = source if isinstance(source, Poly) else char_poly_exact(source)
    _mult, reduced = strip_unit_root(chi)
    if reduced.degree == 0:
        raise NotPerronFrobenius("all eigenvalues equal 1")
    dps = digits + 15
    with mp.workdps(dps):
        try:
            roots = mp.polyroots(reduced.mpf_coeffs(), maxsteps=300,
                                 extraprec=4 * dps)
        except mp.libmp.libhyper.NoConvergence as e:  # pragma: no cover
            raise NotPerronFrobenius(f"root finding failed: {e}")
        radius = max(abs(r) for r in roots)
        tol = mp.mpf(10) ** (-digits // 2)
        dominant = [r for r in roots if abs(r) >= radius * (1 - tol)]
        real_dominant = [r for r in dominant if abs(mp.im(r)) <= radius * tol]
        if len(real_dominant) != 1 or len(dominant) != 1:
            raise NotPerronFrobenius(
                "dominant eigenvalue is not a simple real eigenvalue"
            )
        lam0 = mp.re(real_dominant[0])
        if lam0 <= 1:
            raise NotPerronFrobenius(f"leading eigenvalue {lam0} is not > 1")
    pf = refine_real_root(reduced, lam0, digits)
    if not brackets_root(reduced, pf.value, pf.error):
        raise NotPerronFrobenius(
            f"leading eigenvalue {mp.nstr(pf.value, 15)} +- "
            f"{mp.nstr(pf.error, 5)} does not enclose a root"
        )
    return pf


def pf_lower_bound(omega: IntersectionMatrix) -> Scalar:
    """``lambda >= min_i (1 + sum_j omega[i][j])`` for any PF twist product."""
    return min(exact(1 + sum(row)) for row in omega.entries)


# ---------------------------------------------------------------------------
# bipartite / symplectic structure
# ---------------------------------------------------------------------------

def symplectic_check(omega: IntersectionMatrix, m: ExactMatrix) -> bool:
    """Exact check that ``M`` preserves the skew form attached to a bipartite
    intersection graph.

    With the curves split into the two sides of the bipartition, the matrix
    ``Delta = [[0, X], [-X^T, 0]]`` (indices permuted so each side is a
    contiguous block) satisfies ``M^T Delta M = Delta`` for every twist
    product.  Equivalently, with ``U = diag(+1 on side a, -1 on side b)``,
    ``M^T (U omega) M = U omega``; the check is performed in this permuted
    form conjugated back to the original index order.

    Raises :class:`NotBipartite` if the intersection graph is not bipartite.
    """
    parts = bipartition(graph_of(omega))
    if parts is None:
        raise NotBipartite("intersection graph is not bipartite")
    side_a = set(parts[0])
    n = omega.n
    if len(m) != n or len(m[0]) != n:
        raise DimensionMismatch("matrix size does not match omega")
    delta = tuple(
        tuple(row) if (i + 1) in side_a else tuple(-x for x in row)
        for i, row in enumerate(omega.entries)
    )
    mt = tuple(zip(*m))
    lhs = mat_mul(mat_mul(mt, delta), m)
    return all(
        lhs[i][j] == delta[i][j] for i in range(n) for j in range(n)
    )


# ---------------------------------------------------------------------------
# the quadratic height
# ---------------------------------------------------------------------------

def height(omega: IntersectionMatrix, v: Sequence[Scalar]) -> Scalar:
    """The quadratic form ``h(v) = (1/2) v^T omega v``.

    For any elementary twist ``Q_i`` the exact identity
    ``h(Q_i v) - h(v) = ||Q_i v - v||^2`` holds (both sides equal ``s^2``
    with ``s = (e_i^T omega) v``).
    """
    if len(v) != omega.n:
        raise DimensionMismatch(f"vector length {len(v)} != n = {omega.n}")
    v = tuple(exact(x) if isinstance(x, (int, Fraction)) else exact(Fraction(x)) for x in v)
    total = sum(
        omega.entries[i][j] * v[i] * v[j]
        for i in range(omega.n)
        for j in range(omega.n)
        if omega.entries[i][j] != 0
    )
    return exact(Fraction(total) / 2 if isinstance(total, int) else total / 2)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Everything the degree pipeline needs about one twist product.

    Build it with :meth:`from_charpoly`.  The leading eigenvalue
    ``pf_value`` and its error bound ``pf_error`` are computed from
    ``reduced`` at ``digits`` digits on first access, by
    :func:`pf_eigenvalue`, and cached; both are ``None`` when the product is
    not certified Perron-Frobenius.  ``reduced`` changes sign on
    ``[pf_value - pf_error, pf_value + pf_error]`` (see :func:`brackets_root`).
    Reading them may raise :class:`NotPerronFrobenius` when the numerical
    root finding fails.
    """

    charpoly: Poly
    rank: int
    reduced: Poly
    is_pf: bool
    digits: int

    @classmethod
    def from_charpoly(cls, charpoly: Poly, rank: int, is_pf: bool,
                      digits: Optional[int] = None) -> "SpectralReport":
        """The report on a product with characteristic polynomial ``charpoly``
        over an ``omega`` of rank ``rank``; ``is_pf`` is :func:`pf_certify`'s
        verdict."""
        _exponent, reduced = structure_split(charpoly, rank)
        return cls(charpoly, rank, reduced, is_pf,
                   default_digits() if digits is None else digits)

    @property
    def unit_exponent(self) -> int:
        """The exponent ``n - rank`` of ``(x - 1)`` split off ``charpoly``."""
        return self.charpoly.degree - self.rank

    @property
    def complexity(self) -> int:
        """The number of eigenvalues different from 1."""
        return self.reduced.degree

    @cached_property
    def _pf(self) -> Optional[PFEigenvalue]:
        return pf_eigenvalue(self.reduced, self.digits) if self.is_pf else None

    @property
    def pf_value(self) -> Optional[mp.mpf]:
        return None if self._pf is None else self._pf.value

    @property
    def pf_error(self) -> Optional[mp.mpf]:
        return None if self._pf is None else self._pf.error


def spectral_report(
    omega: IntersectionMatrix,
    word: TwistWord,
    digits: Optional[int] = None,
) -> SpectralReport:
    """Build the exact spectral report for ``M = twist_product(omega, word)``.

    Only exact work happens here; the leading eigenvalue is left to the
    report, which computes it when it is first read.
    """
    chi = char_poly_exact(twist_product(omega, word))
    return SpectralReport.from_charpoly(
        chi, rank_exact(omega), pf_certify(omega, word), digits)
