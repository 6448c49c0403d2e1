"""Arithmetic modulo a prime, on residue lists.

A polynomial modulo ``prime`` is a list of residues in ``[0, prime)``,
constant term first, with no trailing zeros; ``[]`` is zero.  This module is
the one place that knows that format.  It imports only the standard library.

Its two characteristic polynomial kernels are :func:`charpoly_mod`, by
Hessenberg reduction of a residue matrix, and :func:`krylov_charpoly_mod`,
by a Krylov solve on a product of rank-one letters that it never forms,
through half the Krylov space where the letters are 2-coloured.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

#: ``nextprime(2^b)`` for ``b`` = 64, 128, ..., 1024, checked against sympy by the tests.
TABLE_PRIMES = tuple((1 << 64 * j) + offset for j, offset in enumerate(
    (13, 51, 133, 297, 27, 231, 211, 75, 243, 115, 327, 183, 637, 993, 1465, 643), 1))


def trim_mod(a: List[int]) -> List[int]:
    """``a`` with its trailing zeros removed, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def residues(coeffs: Sequence, prime: int) -> Optional[List[int]]:
    """The residues modulo ``prime`` of the rationals ``coeffs``, each ``a / b``
    taken to ``a b^-1``; ``None`` when ``prime`` divides a denominator.  Of
    the coefficients of a polynomial, constant term first, they are its
    residue list unless ``prime`` divides the leading one."""
    if any(c.denominator % prime == 0 for c in coeffs):
        return None
    return [c.numerator * pow(c.denominator, -1, prime) % prime for c in coeffs]


def rem_mod(a: List[int], b: List[int], prime: int) -> List[int]:
    """The remainder of ``a`` by the nonzero ``b`` modulo ``prime``."""
    rem, inv, low = list(a), pow(b[-1], -1, prime), b[:-1]
    for shift in range(len(a) - len(b), -1, -1):
        c = rem.pop() * inv % prime
        if c:
            rem[shift:] = [(u - c * y) % prime for u, y in zip(rem[shift:], low)]
    return trim_mod(rem)


def gcd_mod(a: List[int], b: List[int], prime: int) -> List[int]:
    """The monic greatest common divisor of ``a`` and ``b`` modulo ``prime``,
    not both zero: Euclid's algorithm, which reads only remainders
    (:func:`rem_mod`)."""
    while b:
        a, b = b, rem_mod(a, b, prime)
    inv = pow(a[-1], -1, prime)
    return [c * inv % prime for c in a]


def is_squarefree(f: List[int], prime: int) -> bool:
    """Whether the nonzero ``f`` is squarefree modulo the prime ``prime``:
    whether ``gcd(f, f') = 1``, as over any perfect field such as ``GF(prime)``."""
    derivative = trim_mod([i * c % prime for i, c in enumerate(f)][1:])
    return len(gcd_mod(f, derivative, prime)) == 1


def _pack(a: Sequence[int], width: int) -> int:
    """The nonnegative ``a`` as one int, ``a[i]`` in the ``width`` bytes from
    byte ``i width`` on (Kronecker substitution at ``x = 2^(8 width)``)."""
    return int.from_bytes(b"".join(c.to_bytes(width, "little") for c in a), "little")


def _unpack(x: int, count: int, width: int, prime: int) -> List[int]:
    """The first ``count`` fields of the packed ``x`` (:func:`_pack`), each
    reduced modulo ``prime``."""
    raw = x.to_bytes(count * width, "little")
    return [int.from_bytes(raw[i:i + width], "little") % prime
            for i in range(0, count * width, width)]


def ddf_degrees(f: List[int], prime: int) -> Optional[List[int]]:
    """The degrees of the irreducible factors modulo the prime ``prime``
    of the monic ``f`` (degree at least 1), in increasing order; ``None``
    when ``f`` is not squarefree modulo ``prime`` (:func:`is_squarefree`).

    Distinct-degree factorization: ``x^p mod f`` comes by square-and-multiply,
    and from it the Frobenius matrix, whose row ``i`` is ``x^(i p) mod f``,
    so that ``h^p = sum_i h_i x^(i p)`` costs one vector-matrix product.  For
    a squarefree ``f``, ``gcd(f, x^(p^d) - x)`` is the product of the
    irreducible factors whose degrees divide ``d``, so its degree, less the
    degrees already found that divide ``d``, counts the factors of degree
    ``d``; no factor is divided out.  ``d`` runs up to half the degree not
    yet accounted for, which is then that of one irreducible factor, or 0.

    Products modulo ``f`` run on packed ints (:func:`_pack`), one field per
    coefficient, ``2 bits(p) + bits(n) + 1`` bits wide and byte-aligned, for
    ``f`` of degree ``n``: a product of two residue lists of length ``n``
    is one int product whose fields, sums of at most ``n`` products of
    residues, stay below ``n p^2`` and so never carry into the next.  It is
    reduced modulo ``f`` by adding its high coefficients, reduced modulo
    ``p``, times the packed ``x^n, ..., x^(2n-2) mod f``, which keeps each
    field below ``2 n p^2``; the Frobenius rows stay packed, so ``h^p`` is
    one sum of scalar multiples.
    """
    n = len(f) - 1
    if not is_squarefree(f, prime):
        return None
    if n == 1:
        return [1]
    width = (2 * prime.bit_length() + n.bit_length() + 8) // 8
    table, t = [], [(-c) % prime for c in f[:-1]]  # x^n mod f
    for _ in range(n - 1):
        table.append(_pack(t, width))
        top = t[-1]
        t = [(u - top * c) % prime for u, c in zip([0] + t[:-1], f)]
    low = (1 << 8 * width * n) - 1

    def reduced(x: int) -> int:
        """The packed residues of the packed product ``x`` modulo ``f``."""
        high = _unpack(x >> 8 * width * n, n - 1, width, prime)
        x = (x & low) + sum(c * row for c, row in zip(high, table))
        return _pack(_unpack(x, n, width, prime), width)

    power, base, e = 1, 1 << 8 * width, prime
    while e:
        if e & 1:
            power = reduced(power * base)
        base, e = reduced(base * base), e >> 1
    frobenius = [1]
    for _ in range(1, n):
        frobenius.append(reduced(frobenius[-1] * power))
    degrees, h, d = [], [0, 1], 0
    while 2 * (d + 1) <= n - sum(degrees):
        d += 1
        h = trim_mod(_unpack(sum(c * row for c, row in zip(h, frobenius)), n, width, prime))
        shifted = h + [0] * (2 - len(h))
        shifted[1] = (shifted[1] - 1) % prime
        found = len(gcd_mod(f, trim_mod(shifted), prime)) - 1
        degrees += [d] * ((found - sum(e for e in degrees if d % e == 0)) // d)
    if sum(degrees) < n:
        degrees.append(n - sum(degrees))
    return degrees


def krylov_charpoly_mod(rows: Sequence[Sequence], letters: Sequence[Tuple[int, int]],
                        prime: int) -> Optional[List[int]]:
    """``det(x I - M)`` modulo ``prime``, constant term first, for
    ``M = L_K ... L_1``, ``L_j = I + p_j e_g w^T`` with ``w`` row ``g = g_j``
    (1-based) of the rationals ``rows``, which are symmetric with a zero
    diagonal, from the ``letters`` ``(g_j, p_j)``; ``None`` when the Krylov
    vectors below are dependent modulo ``prime``, which divides no
    denominator of the rows read.

    Each ``M x`` applies the letters in turn, ``x_g += p w^T x``, through
    the residues of the nonzero entries of each letter's row.  The relation among the
    Krylov vectors comes from one forward elimination and a back
    substitution (:func:`_relation`).  With the vectors independent the
    relation is unique, and ``det(x I - M)`` gives one modulo any integer:
    a composite modulus can only make ``pow`` raise ``ValueError`` on a
    pivot that shares a factor with it, or give ``None``.

    *Full size.*  ``sum_(j<n) c_j M^j v = -M^n v`` for ``v = (1, ..., 1)``,
    about ``n^3 / 3`` operations (Cayley-Hamilton).

    *Half size*, for even ``n = 2m`` where some ``d`` in ``{1, -1}^n`` has
    ``d_i = -d_g`` for each letter ``g`` and each ``i`` with ``w_i`` nonzero
    (a 2-colouring of the letters' supports).  Symmetry
    and the zero diagonal give ``L_g^T omega = omega L_g`` (both are
    ``omega + p w w^T``), so ``M^T omega = omega R`` for the letters
    multiplied in reverse order, ``R = L_1 ... L_K``: ``M^T`` and ``R`` are
    similar for invertible ``omega``, and ``chi_M = chi_R`` for every
    ``omega``, the invertible ones being Zariski dense among the symmetric
    ones with zero diagonal.  With ``D = diag(d)``,
    ``D L_g D = I - p e_g w^T = L_g^-1``, so ``D M D = R^-1``, and
    ``chi = chi_M = chi_(M^-1)`` is palindromic, ``c_(m-i) = c_(m+i)``.
    Then ``M^-m chi(M) = c_m I + sum_(0<i<=m) c_(m+i) (M^i + M^-i) = 0``,
    so ``sum_(i<m) c_(m+i) s_i = -s_m`` for ``s_0 = v`` and
    ``s_i = M^i v + M^-i v``, where ``M^-1`` applies the inverse letters
    ``I - p e_g w^T`` in reverse order.  ``M^i + M^-i`` is a monic
    polynomial of degree ``i`` in ``N = M + M^-1``, so the ``s_i`` with
    ``i < m`` span what ``v, N v, ..., N^(m-1) v`` span: the solve, about
    ``5 n^3 / 48`` operations, runs through half the Krylov space and gives
    the upper half of ``chi``.  Each identity is one of polynomials in the
    entries of ``omega`` and the ``p_j``, so it holds modulo any integer.
    """
    support = {g: [(i, x.numerator * pow(x.denominator, -1, prime) % prime)
                   for i, x in enumerate(rows[g - 1]) if x]
               for g in {g for g, _p in letters}}
    steps = [(g - 1, [(i, p * w) for i, w in support[g]]) for g, p in letters]
    n = len(rows)
    if n % 2 or not _two_coloured(support):
        columns = [[1] * n]
        for _ in range(n):
            columns.append(_applied(columns[-1], steps, prime))
        return _relation(columns, prime)
    inverse = [(g, [(i, -w) for i, w in pairs]) for g, pairs in reversed(steps)]
    up = down = [1] * n  # M^i v and M^-i v
    columns = [up]
    for _ in range(n // 2):
        up, down = _applied(up, steps, prime), _applied(down, inverse, prime)
        columns.append([(a + b) % prime for a, b in zip(up, down)])
    upper = _relation(columns, prime)
    return None if upper is None else upper[::-1] + upper[1:]


def _two_coloured(support: Dict[int, List[Tuple[int, int]]]) -> bool:
    """Whether some ``d`` in ``{1, -1}^n`` has ``d_i = -d_(g-1)`` for each
    curve ``g`` (1-based) of ``support`` and each ``(i, w)`` in
    ``support[g]``: a 2-colouring of the graph with those edges, by depth-first search."""
    edges: Dict[int, List[int]] = {}
    for g, pairs in support.items():
        for i, _w in pairs:
            edges.setdefault(g - 1, []).append(i)
            edges.setdefault(i, []).append(g - 1)
    colour: Dict[int, bool] = {}
    for start in edges:
        if start in colour:
            continue
        colour[start], stack = True, [start]
        while stack:
            a = stack.pop()
            for b in edges[a]:
                if b not in colour:
                    colour[b] = not colour[a]
                    stack.append(b)
                elif colour[b] == colour[a]:
                    return False
    return True


def _applied(x: List[int], steps: Sequence[Tuple[int, Sequence[Tuple[int, int]]]],
             prime: int) -> List[int]:
    """``x`` after the rank-one steps ``(g, pairs)`` in turn, each
    ``x_g += sum w x_i`` over ``(i, w)`` in ``pairs``, modulo ``prime``."""
    x = list(x)
    for g, pairs in steps:
        x[g] = (x[g] + sum([w * x[i] for i, w in pairs])) % prime
    return x


def _relation(columns: List[List[int]], prime: int) -> Optional[List[int]]:
    """``c_0, ..., c_(k-1), 1`` with ``sum_(j<k) c_j u_j = -u_k`` modulo
    ``prime``, for the ``k + 1`` vectors ``columns``, each of length at
    least ``k``, where ``u_k`` is a combination of the others; ``None``
    when ``u_0, ..., u_(k-1)`` are dependent.

    One forward elimination, pivot rows scaled to a leading 1 and the row
    updates left unreduced as in :func:`charpoly_mod` (a row takes at most
    ``k`` of them, each below ``p^2`` in size), then a back substitution on
    the first ``k`` rows.
    """
    k = len(columns) - 1
    a = [list(row) for row in zip(*columns)]  # row i: entry i of each vector
    for j in range(k):
        for row in a[j:]:
            row[j] %= prime
        pivot = next((i for i in range(j, len(a)) if a[i][j]), None)
        if pivot is None:
            return None
        a[j], a[pivot] = a[pivot], a[j]
        inv = pow(a[j][j], -1, prime)
        top = a[j][j:] = [y * inv % prime for y in a[j][j:]]
        for row in a[j + 1:]:
            u = row[j]
            if u:
                row[j:] = [y - u * t for y, t in zip(row[j:], top)]
    coeffs = [0] * k + [1]
    for j in range(k - 1, -1, -1):
        coeffs[j] = -sum(map(operator.mul, a[j][j + 1:], coeffs[j + 1:])) % prime
    return coeffs


def charpoly_mod(h: List[List[int]], prime: int) -> List[int]:
    """``det(x I - H)`` modulo ``prime``, constant term first, for a square
    ``H`` with entries in ``[0, prime)``, which is overwritten.

    A similarity brings ``H`` to upper Hessenberg form, one column at a
    time; the characteristic polynomials ``p_m`` of the leading ``m x m``
    blocks then follow from ``p_(m-1), ..., p_0`` (Cohen, *A Course in
    Computational Algebraic Number Theory*, Algorithm 2.2.9).  ``O(n^3)``
    operations modulo ``prime``.

    The row updates ``x - u y`` are not reduced: an entry is reduced only
    where it is read as a residue, in the pivot column before its zero
    test, in the pivot row before it is used, in the column update and,
    all of them, before the recurrence.  A row update adds less than
    ``p^2`` in size, with ``u`` and ``y`` residues, and a row takes at most
    ``n - 2`` of them, so the entries stay below ``n p^2`` in size.  Each
    value read is the residue it would be with every update reduced, so
    the pivots, and the result, are the same.

    Exactness never rests on the primality of ``prime``: the similarity and
    the recurrence are ring operations, valid modulo any integer, so a
    composite modulus can only make ``pow(pivot, -1, prime)`` raise
    ``ValueError`` on a pivot that shares a factor with it.
    """
    n = len(h)
    for m in range(1, n - 1):
        for row in h[m:]:
            row[m - 1] %= prime
        pivot = next((i for i in range(m, n) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[pivot], h[m] = h[m], h[pivot]
            for row in h:
                row[pivot], row[m] = row[m], row[pivot]
        inv = pow(h[m][m - 1], -1, prime)
        top = [y % prime for y in h[m][m - 1:]]
        # the row operations row_i -= u_i row_m (i > m) commute, and so do
        # their inverses col_m += u_i col_i: all rows first, then column m
        u = [h[i][m - 1] * inv % prime for i in range(m + 1, n)]
        for i, ui in enumerate(u, m + 1):
            if ui:
                h[i][m - 1:] = [x - ui * y for x, y in zip(h[i][m - 1:], top)]
        for row in h:
            row[m] = (row[m] + sum(map(operator.mul, u, row[m + 1:]))) % prime
    for row in h:
        row[:] = [x % prime for x in row]
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
