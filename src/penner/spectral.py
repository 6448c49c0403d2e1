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

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import mpmath as mp

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
    PreconditionViolated,
)
from .graphs import bipartition, covers_vertices, graph_of, is_connected

#: Working precision in decimal digits of every ``digits`` argument left unset.
DEFAULT_DIGITS = 50


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def synthetic_division(coeffs: Iterable, r) -> Tuple[List, object]:
    """Divide the polynomial with coefficients ``coeffs`` (leading first, at
    least one) by ``x - r``: Horner's rule ``acc = acc * r + c``.

    Returns ``(quotient, remainder)``, the quotient's coefficients leading
    first and the remainder, which is the value at ``r``.  The arithmetic is
    that of ``r`` and the coefficients: exact for ``int`` and ``Fraction``,
    at the working precision for ``mpf``.
    """
    acc = 0 * r  # keep the numeric type of r
    steps = []
    for c in coeffs:
        acc = acc * r + c
        steps.append(acc)
    return steps[:-1], steps[-1]


class Poly:
    """A univariate polynomial with exact coefficients, constant term first.

    Every coefficient passes through :func:`penner.core.exact`, so it is an
    ``int`` or a ``Fraction``; a float or mpf coefficient raises
    ``TypeError``.  No coefficients means the zero polynomial.  Evaluation
    and division by ``x - r`` go through :func:`synthetic_division`;
    numerical work reaches the coefficients only through :meth:`mpf_coeffs`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [exact(c) for c in coeffs] or [0]
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
        return synthetic_division(reversed(self.coeffs), x)[1]

    def derivative(self) -> "Poly":
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

    def divide_linear(self, r: Scalar) -> Tuple["Poly", Scalar]:
        """``(q, p(r))`` with ``p = (x - r) * q + p(r)``, exactly, for an
        ``int`` or ``Fraction`` ``r``."""
        quotient, remainder = synthetic_division(reversed(self.coeffs), r)
        return Poly(quotient[::-1]), exact(remainder)

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
    return " ".join(terms)


# ---------------------------------------------------------------------------
# characteristic polynomial and rank
# ---------------------------------------------------------------------------

def _domain_matrix(m: ExactMatrix):
    """``m`` as a sympy ``DomainMatrix`` over ZZ if integral, else over QQ.

    sympy is imported here, on first use, not with the package: it is most
    of ``import penner``, and commands that do no exact algebra never load it.
    """
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix

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


def rank_exact(omega: IntersectionMatrix) -> int:
    """Rank over the rationals, via sympy's ``DomainMatrix``."""
    return _domain_matrix(omega.entries).rank()


# ---------------------------------------------------------------------------
# structure of the characteristic polynomial
# ---------------------------------------------------------------------------

def strip_unit_root(p: Poly) -> Tuple[int, Poly]:
    """``(m, q)`` with ``p = (x - 1)^m * q`` and ``q(1) != 0``, exactly."""
    mult = 0
    while p.degree > 0:
        quotient, remainder = p.divide_linear(1)
        if remainder != 0:
            break
        p, mult = quotient, mult + 1
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


def trace_polynomial(p: Poly) -> Optional[Poly]:
    """The trace polynomial ``T`` of degree ``m`` with
    ``p(x) = x^m T(x + 1/x)``, for a palindromic ``p`` of even degree ``2m``;
    ``None`` for any other ``p``.

    The roots of ``p`` are the pairs ``x, 1/x`` over the roots ``y`` of
    ``T``, each pair the roots of ``x^2 - y x + 1``.  ``T`` is exact: with
    ``p = c_m + sum_j c_(m+j) (x^j + x^-j)`` after division by ``x^m``, each
    ``x^j + x^-j`` is an integer polynomial ``V_j`` in ``y = x + 1/x``, from
    ``V_0 = 2``, ``V_1 = y`` and ``V_j = y V_(j-1) - V_(j-2)``.
    Anti-palindromic polynomials (which vanish at 1) and palindromic ones of
    odd degree (which vanish at -1) are not folded.
    """
    c = p.coeffs
    if p.degree % 2 or not is_reciprocal(p) or c[0] != c[-1]:
        return None
    m = p.degree // 2
    out = [c[m]] + [0] * m
    prev, cur = [2], [0, 1]  # V_0 and V_1, constant first
    for j in range(1, m + 1):
        for i, v in enumerate(cur):
            out[i] += c[m + j] * v
        prev, cur = cur, [a - b for a, b in
                          zip([0] + cur, prev + [0, 0])]
    return Poly(out)


def unfold(t: Poly) -> Poly:
    """``x^m t(x + 1/x)`` for ``t`` of degree ``m``: the palindromic
    polynomial whose :func:`trace_polynomial` is ``t``.  Exact: each term
    ``a_i y^i`` gives ``a_i x^(m-i) (x^2 + 1)^i``, binomially expanded."""
    m = t.degree
    out = [0] * (2 * m + 1)
    for i, a in enumerate(t.coeffs):
        for j in range(i + 1):
            out[m - i + 2 * j] += a * math.comb(i, j)
    return Poly(out)


# ---------------------------------------------------------------------------
# Perron-Frobenius
# ---------------------------------------------------------------------------

#: Why a twist product is not Perron-Frobenius (see :func:`pf_certify`): one
#: curve, or else a disconnected graph or a word that misses a curve.
SINGLE_CURVE = "the twist product is not Perron-Frobenius: a single curve meets nothing"
NOT_CERTIFIED = ("twist product is not Perron-Frobenius: the intersection graph "
                 "must be connected and the word must use every curve")


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


def sign_at(p: Poly, x: Fraction) -> int:
    """The sign (-1, 0 or 1) of ``p(x)``, over the integers: that of
    ``L den^d p(num/den)`` for ``x = num/den`` with ``den > 0``, ``d`` the
    degree and ``L`` the least common denominator of the coefficients."""
    num, den = x.numerator, x.denominator
    lcd = math.lcm(*(c.denominator for c in p.coeffs))
    scaled, power = [], 1
    for c in p.leading_first():
        scaled.append(c.numerator * (lcd // c.denominator) * power)
        power *= den
    value = synthetic_division(scaled, num)[1]
    return (value > 0) - (value < 0)


def brackets_root(p: Poly, value: mp.mpf, error: mp.mpf) -> bool:
    """Whether the exact polynomial ``p`` has a root in
    ``[value - error, value + error]``: its values at the two ends, signed
    exactly by :func:`sign_at`, are of opposite sign or zero."""
    v, e = _mpf_to_fraction(value), _mpf_to_fraction(error)
    return sign_at(p, v - e) * sign_at(p, v + e) <= 0


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


def all_roots(p: Poly, digits: int = DEFAULT_DIGITS) -> List:
    """Every root of the exact polynomial ``p``, with multiplicity, at
    ``digits + 15`` digits: the package's one numerical root finder.

    The roots of the factor ``(x - 1)^e`` split off by
    :func:`strip_unit_root` come first, as exact ``mpf(1)``.  The rest are
    located on the reduced polynomial, or, if it is palindromic of even
    degree ``2m`` (as for every twist product over a bipartite ``omega``),
    on its degree-``m`` :func:`trace_polynomial`: each root ``y`` gives the
    roots ``x = (y + sqrt(y^2 - 4)) / 2`` and ``1/x`` of ``x^2 - y x + 1``,
    the square root taken in the direction of ``y`` so the sum does not
    cancel.  Both are kept, so the fold changes only the cost: a caller
    reads the same roots either way.

    Raises :class:`PreconditionViolated` if the root finder does not converge.
    """
    mult, reduced = strip_unit_root(p)
    roots = [mp.mpf(1)] * mult
    if reduced.degree == 0:
        return roots
    trace = trace_polynomial(reduced)
    dps = digits + 15
    with mp.workdps(dps):
        try:
            found = mp.polyroots((reduced if trace is None else trace).mpf_coeffs(),
                                 maxsteps=300, extraprec=4 * dps)
        except mp.libmp.libhyper.NoConvergence as e:
            raise PreconditionViolated(f"root finding failed: {e}") from None
        if trace is None:
            return roots + found
        for y in found:
            s = mp.sqrt(y * y - 4)
            if mp.re(s * mp.conj(y)) < 0:
                s = -s
            x = (y + s) / 2
            roots += [x, 1 / x]
    return roots


def pf_eigenvalue(chi: Poly, digits: int = DEFAULT_DIGITS) -> PFEigenvalue:
    """The leading (Perron-Frobenius) root of the exact characteristic
    polynomial ``chi``, to ``digits`` digits.

    Eigenvalue 1 is stripped off exactly first (it may occur with high
    multiplicity), then the remaining roots are located by
    :func:`all_roots` and the dominant one Newton-refined on the exact
    reduced polynomial.  The returned ``error`` is proven: the reduced
    polynomial changes sign on ``[value - error, value + error]``, checked
    exactly (see :func:`brackets_root`).

    Raises :class:`NotPerronFrobenius` if there is no simple dominant real
    eigenvalue strictly greater than 1, or if the sign-change check fails,
    and :class:`PreconditionViolated` if the root finder does not converge:
    a failed root finder proves nothing about Perron-Frobenius.
    """
    _mult, reduced = strip_unit_root(chi)
    if reduced.degree == 0:
        raise NotPerronFrobenius("all eigenvalues equal 1")
    roots = all_roots(reduced, digits)
    with mp.workdps(digits + 15):
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
    with ``s = (e_i^T omega) v``).  Each entry of ``v`` passes through
    :func:`penner.core.exact`, so a float raises ``TypeError``.
    """
    if len(v) != omega.n:
        raise DimensionMismatch(f"vector length {len(v)} != n = {omega.n}")
    v = tuple(map(exact, v))
    total = sum(
        omega.entries[i][j] * v[i] * v[j]
        for i in range(omega.n)
        for j in range(omega.n)
        if omega.entries[i][j] != 0
    )
    return exact(Fraction(total, 2))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    """Everything the degree pipeline needs about one twist product that
    :func:`pf_certify` certifies Perron-Frobenius.

    Build it with :func:`spectral_report`, or with :meth:`from_charpoly` once
    the product is certified.  The leading eigenvalue ``pf_value`` and its
    error bound ``pf_error`` are computed from ``reduced`` at ``digits``
    digits on first access, by :func:`pf_eigenvalue`, and cached.
    ``reduced`` changes sign on ``[pf_value - pf_error, pf_value + pf_error]``
    (see :func:`brackets_root`).  Reading them may raise
    :class:`NotPerronFrobenius` when the dominance test or the sign-change
    check fails, and :class:`PreconditionViolated` when the root finder does
    not converge.
    """

    charpoly: Poly
    rank: int
    reduced: Poly
    digits: int

    @classmethod
    def from_charpoly(cls, charpoly: Poly, rank: int,
                      digits: int = DEFAULT_DIGITS) -> "SpectralReport":
        """The report on a certified product with characteristic polynomial
        ``charpoly`` over an ``omega`` of rank ``rank``."""
        _exponent, reduced = structure_split(charpoly, rank)
        return cls(charpoly, rank, reduced, digits)

    @property
    def unit_exponent(self) -> int:
        """The exponent ``n - rank`` of ``(x - 1)`` split off ``charpoly``."""
        return self.charpoly.degree - self.rank

    @property
    def complexity(self) -> int:
        """The number of eigenvalues different from 1."""
        return self.reduced.degree

    @cached_property
    def _pf(self) -> PFEigenvalue:
        return pf_eigenvalue(self.reduced, self.digits)

    @property
    def pf_value(self) -> mp.mpf:
        return self._pf.value

    @property
    def pf_error(self) -> mp.mpf:
        return self._pf.error


def spectral_report(
    omega: IntersectionMatrix,
    word: TwistWord,
    digits: int = DEFAULT_DIGITS,
) -> SpectralReport:
    """Build the exact spectral report for ``M = twist_product(omega, word)``.

    Raises :class:`NotPerronFrobenius` before any algebra when
    :func:`pf_certify` does not certify the product.  Only exact work
    happens here; the leading eigenvalue is left to the report, which
    computes it when it is first read.
    """
    if not pf_certify(omega, word):
        raise NotPerronFrobenius(SINGLE_CURVE if omega.n < 2 else NOT_CERTIFIED)
    chi = char_poly_exact(twist_product(omega, word))
    return SpectralReport.from_charpoly(chi, rank_exact(omega), digits)
