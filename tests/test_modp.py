"""Residue lists modulo a prime against sympy over GF(p): the reduction of
rational coefficients and the squarefree test, with primes that divide a
denominator or the leading coefficient, and the remainder; and the modular
characteristic polynomial against the exact one reduced."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings, strategies as st

from penner.modp import TABLE_PRIMES, charpoly_mod, is_squarefree, rem_mod, residues, trim_mod
from penner.spectral import Poly, char_poly_exact

rationals = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 1, 2, 3, 5, 6, 7]))
factors = st.lists(rationals, min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0).map(Poly)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 13, TABLE_PRIMES[0]]), factors, factors, st.integers(1, 3))
@example(3, Poly([1, 1]), Poly([1]), 3)  # (x + 1)^3 = x^3 + 1 modulo 3: f' = 0
@example(5, Poly([1, 5]), Poly([Fraction(1, 3), 1]), 1)  # 5 divides the lead
@example(5, Poly([1, 1]), Poly([Fraction(1, 5), 1]), 1)  # 5 divides a denominator
def test_residues_and_is_squarefree_match_sympy_modulo_the_prime(prime, g, h, e):
    # g^e h has a repeated factor when e > 1, and may have one modulo the
    # prime when e = 1
    f = h
    for _ in range(e):
        f = f * g
    coeffs = [Fraction(c) for c in f.coeffs]
    found = residues(f.coeffs, prime)
    if any(c.denominator % prime == 0 for c in coeffs):
        assert found is None
        return
    field = sympy.GF(prime)
    assert found == [int(field(c.numerator) / field(c.denominator)) % prime for c in coeffs]
    # a residue list, with no trailing zero, unless the prime divides the lead
    assert bool(found[-1]) == (coeffs[-1].numerator % prime != 0)
    while found and not found[-1]:
        found.pop()
    if found:
        spoly = sympy.Poly(found[::-1], sympy.Symbol("x"), modulus=prime)
        expected = all(k == 1 for _g, k in spoly.factor_list()[1])
        assert is_squarefree(found, prime) == expected


@st.composite
def residue_pairs(draw):
    """A prime, a residue list and a nonzero residue list modulo it."""
    prime = draw(st.sampled_from([2, 3, 5, 7, 13, TABLE_PRIMES[0]]))
    residue = st.integers(0, prime - 1)
    a = trim_mod(draw(st.lists(residue, max_size=12)))
    b = draw(st.lists(residue, max_size=6)) + [draw(st.integers(1, prime - 1))]
    return prime, a, b


@settings(max_examples=200, deadline=None)
@given(residue_pairs())
@example((7, [], [3]))  # zero by a constant
@example((5, [1, 2], [0, 4, 1]))  # a divisor of higher degree
def test_rem_mod_matches_sympy_modulo_the_prime(case):
    prime, a, b = case
    x = sympy.Symbol("x")
    expected = sympy.Poly(a[::-1] or [0], x, modulus=prime).rem(
        sympy.Poly(b[::-1], x, modulus=prime))
    assert rem_mod(a, b, prime) == trim_mod([int(c) % prime for c in expected.all_coeffs()[::-1]])


# mostly zeros and small entries, so that the lazily reduced pivot column
# meets nonzero multiples of the prime
entries = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-1000, 1000))
square_matrices = st.integers(1, 10).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, TABLE_PRIMES[0]]), square_matrices)
# left unreduced, a pivot column here would offer 2, a multiple of the
# prime, as its pivot
@example(2, [[0, 1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 1, 1],
             [1, 0, 1, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
def test_charpoly_mod_is_the_exact_characteristic_polynomial_reduced(prime, rows):
    expected = [c % prime for c in char_poly_exact(tuple(map(tuple, rows))).coeffs]
    assert charpoly_mod([[x % prime for x in row] for row in rows], prime) == expected
