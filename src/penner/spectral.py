"""Exact spectral invariants of twist products.

The characteristic polynomials of the pipeline are computed exactly modulo
one prime larger than four times a bound on their coefficients: that of a
twist product by :func:`twist_charpoly`, with a bound read off the word, and
that of a limit map by :func:`hadamard_charpoly`, with Hadamard's bound.
The primes come from a table up to ``2^1024``, so neither loads sympy up to
there; past it sympy's Berkowitz takes over.  Ranks are computed exactly
in-house, by fraction-free elimination (:func:`rank_exact`).
The general characteristic polynomial (Berkowitz) is computed exactly by
sympy's ``DomainMatrix`` over the integers or the rationals; it is the
oracle of the modular kernel.  :func:`_ddf_degrees` gives the degrees of
the irreducible factors of a polynomial modulo a small prime, from which
:mod:`penner.factor` proves irreducibility.  The leading eigenvalue is
computed numerically to a requested number of digits via mpmath, always
starting from the exact polynomial.

Key structure: for a twist product ``M`` over ``omega`` of rank ``r``, the
characteristic polynomial splits as ``chi(x) = (x - 1)^(n - r) * p(x)`` with
``p`` monic of degree ``r`` and ``p(1) != 0``; for words using every curve
the number of eigenvalues different from 1 (the *complexity*) equals ``r``.
"""

from __future__ import annotations

import math
import operator
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
    twist_product,
)
from .errors import (
    DivisionFailed,
    NotPerronFrobenius,
    PreconditionViolated,
)
from .graphs import covers_vertices, graph_of, is_connected

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


def poly_str(p: Poly) -> str:
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0 and p.degree > 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = "x" if k == 1 else f"x^{k}"
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

def char_poly_exact(m: ExactMatrix) -> Poly:
    """The characteristic polynomial ``det(x I - M)``, exactly.

    Berkowitz's division-free algorithm via sympy's ``DomainMatrix`` (over
    ZZ for integer matrices, QQ otherwise); the coefficients come back as
    plain ``int`` / ``Fraction``.  sympy is imported here, on first use, not
    with the package: it is most of ``import penner``, and commands that do
    no general exact algebra never load it.
    """
    from sympy import QQ, ZZ
    from sympy.polys.matrices import DomainMatrix

    integral = all(isinstance(x, int) for row in m for x in row)
    coeffs = DomainMatrix.from_list([list(row) for row in m], ZZ if integral else QQ).charpoly()
    return Poly([Fraction(int(c.numerator), int(c.denominator))
                 for c in reversed(coeffs)])


def rank_exact(omega: IntersectionMatrix) -> int:
    """Rank over the rationals, by fraction-free Gaussian elimination
    (Bareiss) on the integer matrix ``L omega``, ``L`` the least common
    denominator of the entries, which has the same rank.  Each step takes a
    row with a nonzero first entry as the pivot, or else drops the first
    column, and keeps the rows left without their first column.  Their
    entries are then minors of ``L omega`` (Sylvester's identity), so every
    division by the previous pivot is exact."""
    lcd = math.lcm(*(x.denominator for row in omega.entries for x in row))
    rows = [[int(x * lcd) for x in row] for row in omega.entries]
    rank, prev = 0, 1
    while rows and rows[0]:
        i = next((i for i, row in enumerate(rows) if row[0]), None)
        if i is None:
            rows = [row[1:] for row in rows]
            continue
        top = rows.pop(i)
        rows = [[(top[0] * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
                for row in rows]
        prev, rank = top[0], rank + 1
    return rank


# ---------------------------------------------------------------------------
# characteristic polynomials modulo one prime
# ---------------------------------------------------------------------------

def charpoly_bound(omega: IntersectionMatrix, word: TwistWord) -> int:
    """An integer ``B`` with ``|c_i| <= B`` for every coefficient ``c_i`` of
    the characteristic polynomial of ``twist_product(omega, word)``:
    ``B = C(n, n // 2) * prod_j (1 + p_j N_j)`` over the letters ``(g_j, p_j)``
    of the word, where ``N_j = isqrt(ceil(||omega_(g_j)||_2^2)) + 1`` is above
    the Euclidean norm of row ``g_j`` of ``omega``.

    Why it holds: Mahler's inequality gives ``|c_i| <= C(n, i) M(chi)``,
    ``M`` the Mahler measure, the product of the eigenvalue moduli above 1.
    By Weyl's majorant theorem and Horn's inequality, ``M(chi)`` is at most
    the product over the letters of their singular values above 1.  The
    letter ``I + p e_g omega_g^T`` (``omega_gg = 0``) has determinant 1 and
    differs from ``I`` in rank one, so it has one singular value above 1,
    at most ``1 + p ||omega_g||_2``.  On the ``S43-max`` tour from root 1
    the bound has 118, 148, 169, 302 and 446 bits where the coefficients
    have 63, 95, 119, 261 and 406, at k = 1, 2, 3, 27 and 243.
    """
    bound = math.comb(omega.n, omega.n // 2)
    for g, p in zip(word.gamma, word.powers):
        norm = math.isqrt(math.ceil(sum(x * x for x in omega.entries[g - 1]))) + 1
        bound *= 1 + p * norm
    return bound


#: ``nextprime(2^b) - 2^b`` for ``b`` = 64, 128, ..., 1024: the primes of
#: :func:`_charpoly_lifted`, checked against sympy by the tests.
_PRIME_OFFSETS = (13, 51, 133, 297, 27, 231, 211, 75, 243, 115, 327, 183, 637, 993, 1465, 643)


def _charpoly_mod(h: List[List[int]], prime: int) -> List[int]:
    """``det(x I - H)`` modulo ``prime``, constant term first, for a square
    ``H`` with entries in ``[0, prime)``, which is overwritten.

    A similarity brings ``H`` to upper Hessenberg form, one column at a
    time; the characteristic polynomials ``p_m`` of the leading ``m x m``
    blocks then follow from ``p_(m-1), ..., p_0`` (Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 2.2.9).  ``O(n^3)``
    operations modulo ``prime``.

    Exactness never rests on the primality of ``prime``: the similarity and
    the recurrence are ring operations, valid modulo any integer, so a
    composite modulus can only make ``pow(pivot, -1, prime)`` raise
    ``ValueError`` on a pivot that shares a factor with it.
    """
    n = len(h)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        inv = pow(h[m][m - 1], -1, prime)
        top = h[m][m - 1:]
        # the row operations row_i -= u_i row_m (i > m) commute, and so do
        # their inverses col_m += u_i col_i: all rows first, then column m
        u = [h[i][m - 1] * inv % prime for i in range(m + 1, n)]
        for i, ui in enumerate(u, m + 1):
            if ui:
                h[i][m - 1:] = [(x - ui * y) % prime for x, y in zip(h[i][m - 1:], top)]
        for row in h:
            row[m] = (row[m] + sum(map(operator.mul, u, row[m + 1:]))) % prime
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        new = [0] + prev  # x p_(m-1), then minus h_mm p_(m-1)
        for j, v in enumerate(prev):
            new[j] -= h[m][m] * v
        t = 1  # the product of subdiagonal entries h[m][m-1] ... h[m-i+1][m-i]
        for i in range(1, m + 1):
            t = t * h[m - i + 1][m - i] % prime
            if not t:
                break
            c = t * h[m - i][m] % prime
            for j, v in enumerate(polys[m - i]):
                new[j] -= c * v
        polys.append([v % prime for v in new])
    return polys[n]


def _charpoly_lifted(m: ExactMatrix, bound: int, multipliers: Sequence[int]) -> Poly:
    """The characteristic polynomial of the square exact matrix ``m``, from
    one computation modulo a prime, given for each coefficient ``c_j`` (that
    of ``x^j``) an integer ``d_j = multipliers[j]`` with ``d_j c_j`` integral
    and ``|d_j c_j| <= bound``.  Every prime factor of the entries'
    denominators and of the ``d_j`` must be at most ``bound``.

    The entries reduce modulo the least prime ``P`` above ``2^b``, with
    ``b`` the least multiple of 64 at which ``2^b > 4 bound``, read off
    ``_PRIME_OFFSETS``: ``x`` to ``(L x) L^-1``, ``L`` the least common
    denominator of the entries.  :func:`_charpoly_mod` gives each ``c_j``
    modulo ``P``, and ``d_j c_j`` is the symmetric residue of
    ``d_j c_j mod P`` in ``(-P/2, P/2)``, which determines it.  Past the
    table, ``b > 1024``, sympy's Berkowitz (:func:`char_poly_exact`) gives
    the polynomial instead; no pipeline bound gets there.
    """
    bits = -(-(4 * bound).bit_length() // 64) * 64
    if bits > 64 * len(_PRIME_OFFSETS):
        return char_poly_exact(m)
    prime = (1 << bits) + _PRIME_OFFSETS[bits // 64 - 1]
    lcd = math.lcm(*(x.denominator for row in m for x in row))
    inverse = pow(lcd, -1, prime)
    residues = _charpoly_mod([[int(x * lcd) * inverse % prime for x in row] for row in m],
                             prime)
    half = prime // 2
    coeffs = []
    for c, d in zip(residues, multipliers):
        c = c * d % prime
        coeffs.append(Fraction(c - prime if c > half else c, d))
    return Poly(coeffs)


def twist_charpoly(omega: IntersectionMatrix, word: TwistWord) -> Poly:
    """The characteristic polynomial of ``M = twist_product(omega, word)``,
    exactly, from one computation modulo a prime (:func:`_charpoly_lifted`).

    Its coefficients have denominators dividing ``E`` (1 for an integral
    ``omega``), the product over the letters ``(g_j, p_j)`` of the least
    common denominator of row ``g_j`` of ``omega``, so ``E c_j`` is an
    integer of size at most ``E B``, ``B`` the :func:`charpoly_bound` of the
    word.  Every minor of a letter ``I + p e_g omega_g^T`` is linear in its
    row ``g``, so its denominator divides that of the row, and by
    Cauchy-Binet the denominators of the minors of ``M``, whose sums the
    ``c_j`` are, divide ``E``.  The entries are minors too, so their
    denominators divide ``E``, and the prime exceeds its prime factors.
    """
    mult = math.prod(math.lcm(*(x.denominator for x in omega.entries[g - 1]))
                     for g in word.gamma)
    return _charpoly_lifted(twist_product(omega, word), mult * charpoly_bound(omega, word),
                            [mult] * (omega.n + 1))


def hadamard_charpoly(m: ExactMatrix) -> Poly:
    """The characteristic polynomial of the square exact matrix ``m``, from
    one computation modulo a prime (:func:`_charpoly_lifted`): for small
    entries, such as those of the limit maps of :func:`penner.boundary.f_gamma`.

    With ``D`` the least common denominator of the entries and ``A = D m``,
    ``D^(n-j) c_j`` is the coefficient of ``x^j`` in the characteristic
    polynomial of ``A``, a signed sum of the ``C(n, j)`` principal minors of
    order ``n - j``.  By Hadamard's inequality each is at most the product
    of the Euclidean norms of its rows, which are at most those of the rows
    of ``A``, so
    ``|D^(n-j) c_j| <= C(n, n // 2) prod_rows max(1, ceil(||A_row||_2))``.
    The bound is raised to ``D`` when that is more, so that the prime
    exceeds the prime factors of ``D``.  A bound past 1,024 bits, such as
    that of the ``S43-max`` tour product at k = 256 (6,186 bits), goes to
    sympy's Berkowitz (:func:`char_poly_exact`).
    """
    n = len(m)
    lcd = math.lcm(*(x.denominator for row in m for x in row))
    bound = math.comb(n, n // 2)
    for row in m:
        square = sum(int(x * lcd) ** 2 for x in row)
        root = math.isqrt(square)
        bound *= max(1, root + (root * root < square))
    return _charpoly_lifted(m, max(bound, lcd), [lcd ** (n - j) for j in range(n + 1)])


# ---------------------------------------------------------------------------
# distinct-degree factorization modulo a small prime
# ---------------------------------------------------------------------------
# Polynomials modulo ``prime`` are lists of residues in ``[0, prime)``,
# constant term first, with no trailing zeros; ``[]`` is zero.

def _trim(a: List[int]) -> List[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod_mod(a: List[int], b: List[int], prime: int) -> Tuple[List[int], List[int]]:
    """Quotient and remainder of ``a`` by the nonzero ``b`` modulo ``prime``."""
    rem, inv = list(a), pow(b[-1], -1, prime)
    quotient = [0] * max(len(a) - len(b) + 1, 0)
    low = b[:-1]
    for shift in range(len(quotient) - 1, -1, -1):
        c = rem.pop() * inv % prime
        quotient[shift] = c
        if c:
            rem[shift:] = [(u - c * y) % prime for u, y in zip(rem[shift:], low)]
    return _trim(quotient), _trim(rem)


def _gcd_mod(a: List[int], b: List[int], prime: int) -> List[int]:
    """The monic greatest common divisor of ``a`` and ``b`` modulo ``prime``,
    not both zero."""
    while b:
        a, b = b, _divmod_mod(a, b, prime)[1]
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def _mulmod(a: List[int], b: List[int], f: List[int], prime: int) -> List[int]:
    """``a b`` modulo the monic ``f`` and ``prime``."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = [u + x * y for u, y in zip(out[i:i + len(b)], b)]
    return _divmod_mod([c % prime for c in out], f, prime)[1]


def _ddf_degrees(f: List[int], prime: int) -> Optional[List[int]]:
    """The degrees of the irreducible factors modulo the prime ``prime``
    of the monic ``f`` (residues, constant term first, degree at least 1),
    in increasing order; ``None`` when ``f`` is not squarefree modulo
    ``prime``, that is when ``gcd(f, f')`` is not 1.

    Distinct-degree factorization: ``x^p mod f`` comes by square-and-multiply,
    and from it the Frobenius matrix, whose row ``i`` is ``x^(i p) mod f``,
    so that ``h^p = sum_i h_i x^(i p)`` costs one vector-matrix product.  The
    product of the irreducible factors of degree ``d`` of a squarefree
    ``f`` is ``gcd(f, x^(p^d) - x)`` once those of lower degree are divided
    out.  ``d`` runs up to half the degree of what is left, which is then
    irreducible or 1.
    """
    n = len(f) - 1
    if len(_gcd_mod(f, _trim([i * c % prime for i, c in enumerate(f)][1:]), prime)) > 1:
        return None
    power, base, e = [1], [0, 1], prime
    while e:
        if e & 1:
            power = _mulmod(power, base, f, prime)
        base, e = _mulmod(base, base, f, prime), e >> 1
    frobenius = [[1]]
    for _ in range(1, n):
        frobenius.append(_mulmod(frobenius[-1], power, f, prime))
    degrees, rest, h, d = [], f, [0, 1], 0
    while 2 * (d + 1) < len(rest):
        d += 1
        image = [0] * n
        for c, row in zip(h, frobenius):
            if c:
                image[:len(row)] = [u + c * y for u, y in zip(image, row)]
        h = _trim([c % prime for c in image])
        shifted = h + [0] * (2 - len(h))
        shifted[1] = (shifted[1] - 1) % prime
        g = _gcd_mod(rest, _trim(shifted), prime)
        if len(g) > 1:
            degrees += [d] * ((len(g) - 1) // d)
            rest = _divmod_mod(rest, g, prime)[0]
    if len(rest) > 1:
        degrees.append(len(rest) - 1)
    return degrees


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


def refine_real_root(p: Poly, x0: mp.mpf, digits: int) -> PFEigenvalue:
    """Newton-refine a simple real root of an exact polynomial from ``x0``.

    Returns the root to roughly ``digits`` significant digits together with
    an error estimate: the residual-based ``2 |p(x)/p'(x)|``, but never less
    than the stopping tolerance ``10^-(digits+5) * max(1, |x|)``, below which
    the residual is rounding noise.
    """
    with mp.workdps(digits + 15):
        x = mp.mpf(x0)
        f = p.mpf_coeffs()
        tol = mp.mpf(10) ** (-(digits + 5))
        for _ in range(200):
            fx, dfx = mp.polyval(f, x, derivative=True)
            if dfx == 0:
                break
            dx = fx / dfx
            x = x - dx
            if abs(dx) <= tol * max(1, abs(x)):
                break
        fx, dfx = mp.polyval(f, x, derivative=True)
        err = max(2 * abs(fx / dfx), tol * max(1, abs(x)))
        return PFEigenvalue(mp.mpf(x), mp.mpf(err))


def root_bound_bits(p: Poly) -> int:
    """An integer ``b`` with ``|x| <= 2^b`` for every root ``x`` of ``p``.

    Fujiwara's bound ``|x| <= 2 max_i |a_(d-i) / a_d|^(1/i)`` (1916), taken
    exactly from bit lengths: with ``a = num / den``,
    ``2^(len(num) - len(den) - 1) < |a| < 2^(len(num) - len(den) + 1)``.
    ``0`` when ``p`` has no nonzero root.
    """
    def bits(c: Scalar) -> int:
        return c.numerator.bit_length() - c.denominator.bit_length()

    lead = bits(p.coeffs[-1]) - 1
    exps = [-((lead - bits(c) - 1) // i)  # ceil((bits(c) + 1 - lead) / i)
            for i, c in enumerate(reversed(p.coeffs[:-1]), 1) if c != 0]
    return 1 + max(exps) if exps else 0


#: Bits of extra precision above the root bound in :func:`all_roots`.  On
#: the S43-max tours up to k = 256 margins of 0 to 30 bits all converged,
#: in the same time; 30 leaves room for a polynomial whose bound is tight.
ROOT_BOUND_MARGIN = 30


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

    ``mp.polyroots`` (Durand-Kerner) stops only when every correction is
    below the working ``eps`` in absolute terms, so a root of modulus
    ``2^b`` needs about ``b`` bits beyond the working precision.  The extra
    precision is therefore ``4 * (digits + 15)`` bits, or the
    :func:`root_bound_bits` of the located polynomial plus
    ``ROOT_BOUND_MARGIN`` bits when that is more.  A fixed extra precision
    would make the finder run all its steps and fail on roots that outgrow
    it.

    Raises :class:`PreconditionViolated` if the root finder does not converge.
    """
    mult, reduced = strip_unit_root(p)
    roots = [mp.mpf(1)] * mult
    if reduced.degree == 0:
        return roots
    trace = trace_polynomial(reduced)
    located = reduced if trace is None else trace
    dps = digits + 15
    extraprec = max(4 * dps, root_bound_bits(located) + ROOT_BOUND_MARGIN)
    with mp.workdps(dps):
        try:
            found = mp.polyroots(located.mpf_coeffs(), maxsteps=300,
                                 extraprec=extraprec)
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
    return SpectralReport.from_charpoly(twist_charpoly(omega, word),
                                        rank_exact(omega), digits)
