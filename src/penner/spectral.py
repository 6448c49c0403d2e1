"""Exact spectral invariants of twist products.

The characteristic polynomials of the pipeline are computed exactly modulo
one prime larger than four times a bound on their coefficients: that of a
twist product by :func:`twist_charpoly`, with a bound read off the word, and
that of a limit map by :func:`hadamard_charpoly`, with Hadamard's bound.
Modulo the prime, a twist product's comes from a Krylov solve on the word's
letters, which never forms the product, and a limit map's, or a twist
product's where the Krylov vectors are dependent, by Hessenberg reduction.
The primes come from a table up to ``2^1024``, so neither loads sympy up to
there; past it sympy's Berkowitz takes over.  The arithmetic modulo a prime,
there and in :func:`squarefree_parts`, is :mod:`penner.modp`'s.  Ranks are
computed exactly in-house, by fraction-free elimination (:func:`rank_exact`).
The general characteristic polynomial (Berkowitz) is computed exactly by
sympy's ``DomainMatrix`` over the integers or the rationals; it is the
oracle of the modular kernel.  sympy's square-free and irreducible factor
lists come through one bridge, :func:`sympy_factors`.  The leading
eigenvalue is computed to a requested number of digits in mpmath's
arithmetic, Newton-refined on the exact polynomial and bracketed exactly.
One step, :func:`pf_eigenvalue`, computes it: Newton starts from the exact
Collatz-Wielandt bounds of the twist product when the caller passes the
product, as :func:`~penner.recipe.run_recipe` and the limit path's rays
(:func:`~penner.boundary.ray_convergence_experiment`) do, and otherwise
from the root that one Durand-Kerner iteration locates among all roots
(:func:`all_roots`).

Key structure: for a twist product ``M`` over ``omega`` of rank ``r``, the
characteristic polynomial splits as ``chi(x) = (x - 1)^(n - r) * p(x)`` with
``p`` monic of degree ``r`` and ``p(1) != 0``; for words using every curve
the number of eigenvalues different from 1 (the *complexity*) equals ``r``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import mpmath as mp

from .core import (
    ExactMatrix,
    IntersectionMatrix,
    Scalar,
    TwistWord,
    collatz_wielandt,
    exact,
    twist_product,
)
from .errors import (
    DivisionFailed,
    NotPerronFrobenius,
    PreconditionViolated,
)
from .graphs import covers_vertices, graph_of, is_connected
from .modp import TABLE_PRIMES, charpoly_mod, is_squarefree, krylov_charpoly_mod, residues

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

    def leading_first(self) -> Tuple:
        return tuple(reversed(self.coeffs))

    def mpf_coeffs(self) -> List[mp.mpf]:
        """The coefficients, leading first, as mpf at the working precision."""
        return list(map(to_mpf, reversed(self.coeffs)))

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


def to_mpf(c: Scalar) -> mp.mpf:
    """The exact scalar ``c`` as an mpf at the working precision."""
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


def _charpoly_lifted(m, bound: int, multipliers: Sequence[int],
                     krylov: Optional[Callable[[int], Optional[List[int]]]] = None) -> Poly:
    """The characteristic polynomial of the square exact matrix ``m``, or of
    the one a callable ``m`` builds, from one computation modulo a prime,
    given for each coefficient ``c_j`` (that of ``x^j``) an integer
    ``d_j = multipliers[j]`` with ``d_j c_j`` integral and
    ``|d_j c_j| <= bound``.  Every prime factor of the entries'
    denominators and of the ``d_j`` must be at most ``bound``.

    The modulus ``P`` is the least of the :data:`~penner.modp.TABLE_PRIMES`
    ``nextprime(2^b)`` with ``2^b > 4 bound``.  ``krylov(P)``, when given,
    gives each ``c_j`` modulo ``P``, or ``None``; then the matrix is built,
    its entries reduce (:func:`~penner.modp.residues`) modulo ``P`` and
    :func:`~penner.modp.charpoly_mod` gives them.  ``d_j c_j`` is the
    symmetric residue of ``d_j c_j mod P`` in ``(-P/2, P/2)``, which
    determines it.  Past the table, ``b > 1024``, sympy's Berkowitz
    (:func:`char_poly_exact`) gives the polynomial instead; no pipeline
    bound gets there.
    """
    bits = (4 * bound).bit_length()
    prime = next((q for q in TABLE_PRIMES if q.bit_length() > bits), None)
    found = krylov(prime) if krylov and prime else None
    if found is None:
        m = m() if callable(m) else m
        if prime is None:
            return char_poly_exact(m)
        found = charpoly_mod([residues(row, prime) for row in m], prime)
    half = prime // 2
    coeffs = []
    for c, d in zip(found, multipliers):
        c = c * d % prime
        coeffs.append(Fraction(c - prime if c > half else c, d))
    return Poly(coeffs)


def twist_charpoly(omega: IntersectionMatrix, word: TwistWord) -> Poly:
    """The characteristic polynomial of ``M = twist_product(omega, word)``,
    exactly, from one computation modulo a prime (:func:`_charpoly_lifted`).

    Modulo the prime, :func:`~penner.modp.krylov_charpoly_mod` applies the
    word's letters to ``v = (1, ..., 1)``, without forming ``M``, and solves
    for the relation among ``v, M v, ..., M^n v``.  When
    ``v, ..., M^(n-1) v`` are independent modulo the prime, the minimal
    polynomial of ``v`` has degree ``n`` and divides ``chi``, so the
    relation is ``chi``.  Otherwise ``M`` is formed and reduced to
    Hessenberg form (:func:`~penner.modp.charpoly_mod`); over ``omega`` of
    rank ``r <= n - 2`` always, since every letter fixes ``ker omega``, so
    eigenvalue 1 has ``n - r >= 2`` independent eigenvectors and no ``v``
    has ``n`` independent Krylov vectors.

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
    letters = list(zip(word.gamma, word.powers))
    return _charpoly_lifted(lambda: twist_product(omega, word), mult * charpoly_bound(omega, word),
                            [mult] * (omega.n + 1),
                            lambda prime: krylov_charpoly_mod(omega.entries, letters, prime))


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
                 "must be connected and the path must visit every curve")


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
    man, exp = x.man_exp  # an unsigned mantissa: the sign is read apart
    return Fraction(-int(man) if x < 0 else int(man)) * Fraction(2) ** int(exp)


def brackets_root(p: Poly, value: mp.mpf, error: mp.mpf) -> bool:
    """Whether the exact polynomial ``p`` has a root in
    ``[value - error, value + error]``: its values at the two ends, checked
    exactly, are of opposite sign or zero.  An end is dyadic, ``a / b``
    with ``b`` a power of 2, and the value there has the sign of the
    integer ``D b^d p(a / b)``, ``D`` the least common denominator of the
    coefficients ``c_i`` and ``d`` the degree, which
    :func:`synthetic_division` evaluates at ``a`` on the integer
    coefficients ``D c_i b^(d-i)``."""
    v, e = _mpf_to_fraction(value), _mpf_to_fraction(error)
    lcd = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [c.numerator * (lcd // c.denominator) for c in p.leading_first()]
    low, high = (synthetic_division([c << i * (end.denominator.bit_length() - 1)
                                     for i, c in enumerate(ints)], end.numerator)[1]
                 for end in (v - e, v + e))
    return low * high <= 0


def refine_real_root(p: Poly, x0: mp.mpf, digits: int) -> PFEigenvalue:
    """Newton-refine a simple real root of an exact polynomial from ``x0``.

    Returns the last iterate, at ``digits + 15`` digits, with the stopping
    tolerance ``10^-(digits+5) * max(1, |x|)`` as its error: a claim that
    the caller checks exactly (:func:`brackets_root`), since the iteration
    may stop on a zero derivative or after 200 steps.
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
        return PFEigenvalue(x, tol * max(1, abs(x)))


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
#: the S43-max tours from all 24 roots at k = 1, 27 and 256, margins of 0 to
#: 60 bits all converged to the same leading eigenvalues in about the same
#: time; 30 leaves room for a polynomial whose bound is tight.
ROOT_BOUND_MARGIN = 30


def sympy_factors(p: Poly, squarefree: bool) -> List[Tuple[Poly, int]]:
    """sympy's ``sqf_list`` of ``p`` when ``squarefree``, else its
    ``factor_list``, over the rationals, as pairs of a monic :class:`Poly`
    and an ``int`` multiplicity: the package's one bridge to sympy's
    polynomials.  sympy is imported on first use, as in
    :func:`char_poly_exact`."""
    import sympy

    spoly = sympy.Poly(list(p.leading_first()), sympy.Symbol("x"), domain="QQ")
    _content, factors = spoly.sqf_list() if squarefree else spoly.factor_list()
    return [(Poly([Fraction(int(c.p), int(c.q)) for c in reversed(g.monic().all_coeffs())]),
             int(e)) for g, e in factors]


def squarefree_parts(p: Poly) -> List[Tuple[Poly, int]]:
    """Pairs ``(part, multiplicity)`` with ``p = c * prod part^multiplicity``
    for a rational constant ``c``, the parts squarefree, pairwise coprime
    and of degree at least 1, for ``p`` of degree at least 1.

    ``[(p, 1)]`` when one prime proves ``p`` squarefree: the least table
    prime ``P``, above ``2^64``, divides no denominator of ``p`` and not its
    leading coefficient, and ``gcd(p, p') = 1`` modulo ``P``
    (:func:`~penner.modp.is_squarefree`).  The lemma: if ``p = c g^2 h``
    with ``g`` and ``h`` monic and ``deg g >= 1``, Gauss's lemma over
    ``Z_(P)`` puts ``g`` and ``h`` in ``Z_(P)[x]``, so modulo ``P`` the
    factor ``g``, of the same degree, divides ``p`` and
    ``p' = c g (2 g' h + g h')``.  Otherwise (a repeated root, or a ``P``
    that divides the discriminant or the leading coefficient) the parts are
    sympy's ``sqf_list`` (:func:`sympy_factors`), certified by exact
    re-multiplication, with ``c`` the leading coefficient of ``p``.
    """
    if p.degree < 1:
        raise ValueError("squarefree_parts requires degree >= 1")
    f = residues(p.coeffs, TABLE_PRIMES[0])
    if f is not None and f[-1] and is_squarefree(f, TABLE_PRIMES[0]):
        return [(p, 1)]
    parts = sympy_factors(p, squarefree=True)
    product = math.prod((g for g, e in parts for _ in range(e)), start=Poly([p.coeffs[-1]]))
    if product != p:  # pragma: no cover - sympy returned bad parts
        raise ArithmeticError("squarefree decomposition failed certification")
    return parts


def _durand_kerner(part: Poly, c: int, extraprec: int) -> List:
    """Every root of the squarefree ``part``: the Durand-Kerner (Weierstrass)
    iteration from ``c + (0.4 + 0.9j)^i``, at ``extraprec`` extra bits.  The
    correction ``p(z_i) / prod_(j != i) (z_i - z_j)`` (one complex division;
    a zero difference is skipped) is unchanged when every point and root is
    translated by ``c``, so this is mpmath's iteration on ``part(x + c)``
    from its own start, moved by ``c``.  The rules are mpmath's: stop once
    every correction is below the working ``eps``, raise ``NoConvergence``
    after 300 steps, zero parts below ``eps`` (a real root is an ``mpf``),
    sort by ``(|im|, re)`` and round to the working precision."""
    tol = +mp.eps
    with mp.extraprec(extraprec):
        coeffs = part.mpf_coeffs()
        monic = [a / coeffs[0] for a in coeffs]
        roots = [c + mp.mpc((0.4 + 0.9j) ** i) for i in range(part.degree)]
        err = [mp.mpf(1)] * len(roots)
        for _ in range(300):
            if max(err) < tol:
                break
            for i, z in enumerate(roots):
                den = mp.mpf(1)
                for w in roots:  # z - z, and any other zero, is skipped
                    difference = z - w
                    if difference:
                        den *= difference
                x = mp.polyval(monic, z) / den
                roots[i] = z - x
                err[i] = abs(x)
        if max(err) >= tol:
            raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300 steps.")
        for i, z in enumerate(roots):
            if abs(z) < tol:
                roots[i] = mp.mpf(0)
            elif abs(z.imag) < tol:
                roots[i] = z.real
            elif abs(z.real) < tol:
                roots[i] = z.imag * 1j
        roots.sort(key=lambda z: (abs(mp.im(z)), mp.re(z)))
    return [+z for z in roots]


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

    The located polynomial is split into its :func:`squarefree_parts`, and
    the roots of each part, located apart by :func:`_durand_kerner`, are
    repeated by its multiplicity: Durand-Kerner converges only linearly on
    a repeated root, and may not reach the working ``eps`` there at all.
    It stops only when every correction is below ``eps`` in absolute terms,
    so a root of modulus ``2^b`` needs about ``b`` bits beyond the working
    precision.  Each part's extra precision is therefore its
    :func:`root_bound_bits`, or 0 when that is negative (all roots below 1
    in modulus), plus ``ROOT_BOUND_MARGIN`` bits.  A fixed extra precision
    would make the iteration run all its steps and fail on roots that
    outgrow it.  The exact coefficients are rounded at the raised precision
    too.  The iteration starts about ``x = 1`` (``y = 2`` on a trace
    polynomial), where along a ray ``k * omega`` the roots other than the
    leading one crowd.

    Raises :class:`PreconditionViolated` if the iteration does not converge.
    """
    mult, reduced = strip_unit_root(p)
    roots = [mp.mpf(1)] * mult
    if reduced.degree == 0:
        return roots
    trace = trace_polynomial(reduced)
    centre = 1 if trace is None else 2  # x = 1, or its image y = 1 + 1/1
    found = []
    with mp.workdps(digits + 15):
        for part, part_mult in squarefree_parts(reduced if trace is None else trace):
            extraprec = max(root_bound_bits(part), 0) + ROOT_BOUND_MARGIN
            try:
                part_roots = _durand_kerner(part, centre, extraprec)
            except mp.libmp.libhyper.NoConvergence as e:
                raise PreconditionViolated(f"root finding failed: {e}") from None
            found += [r for r in part_roots for _ in range(part_mult)]
        if trace is None:
            return roots + found
        for y in found:
            s = mp.sqrt(y * y - 4)
            if mp.re(s * mp.conj(y)) < 0:
                s = -s
            x = (y + s) / 2
            roots += [x, 1 / x]
    return roots


def pf_eigenvalue(chi: Poly, digits: int = DEFAULT_DIGITS,
                  product: Optional[ExactMatrix] = None) -> PFEigenvalue:
    """The leading (Perron-Frobenius) root of the exact characteristic
    polynomial ``chi``, to ``digits`` digits: the package's one eigenvalue
    step.

    Eigenvalue 1 is stripped off exactly first (it may occur with high
    multiplicity).  A caller holding the certified twist ``product`` of
    ``chi`` passes it: its leading eigenvalue is its spectral radius, which
    :func:`~penner.core.collatz_wielandt` bounds exactly by ``[lo, hi]``,
    and Newton (:func:`refine_real_root`) starts at their midpoint.  That
    answer stands when ``[lo, hi]`` lies in ``[value - error, value +
    error]`` (their width is at most ``10^-(digits+6) lo``, the error is
    ``10^-(digits+5) value``) and the sign-change check below passes.
    Where it fails, as when ``lambda`` and another root lie closer than
    Newton's error, the bounds answer alone: the value is their midpoint at
    ``digits + 15`` digits, the error its largest distance to ``lo`` or
    ``hi``, rounded up, and the answer stands when the sign-change check
    passes.  Otherwise the remaining roots are located by
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
    bounds = None if product is None else collatz_wielandt(product, digits)
    if bounds is not None:
        lo, hi = bounds
        with mp.workdps(digits + 15):
            midpoint = to_mpf((lo + hi) / 2)
        pf = refine_real_root(reduced, midpoint, digits)
        value, error = _mpf_to_fraction(pf.value), _mpf_to_fraction(pf.error)
        if (value - error <= lo and hi <= value + error
                and brackets_root(reduced, pf.value, pf.error)):
            return pf
        centre = _mpf_to_fraction(midpoint)
        distance = max(centre - lo, hi - centre)
        with mp.workdps(digits + 15):
            pf = PFEigenvalue(midpoint, mp.fdiv(distance.numerator, distance.denominator,
                                                rounding="u"))
        if brackets_root(reduced, pf.value, pf.error):
            return pf
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
    error bound ``pf_error`` are computed at ``digits`` digits on first
    access and cached, by :func:`pf_eigenvalue` from ``reduced`` and, when
    the report holds it, the twist ``product``: ``pf_error`` is Newton's
    stopping tolerance, or the bounds' half-width where they answer alone.
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
    product: Optional[ExactMatrix] = field(default=None, compare=False, repr=False)

    @classmethod
    def from_charpoly(cls, charpoly: Poly, rank: int, digits: int = DEFAULT_DIGITS,
                      product: Optional[ExactMatrix] = None) -> "SpectralReport":
        """The report on a certified product with characteristic polynomial
        ``charpoly`` over an ``omega`` of rank ``rank``; the product itself
        may come along as ``product``."""
        _exponent, reduced = structure_split(charpoly, rank)
        return cls(charpoly, rank, reduced, digits, product)

    @property
    def unit_exponent(self) -> int:
        """The exponent ``n - rank`` of ``(x - 1)`` split off ``charpoly``."""
        return self.charpoly.degree - self.rank

    @cached_property
    def _pf(self) -> PFEigenvalue:
        return pf_eigenvalue(self.reduced, self.digits, self.product)

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
