"""Unit and property tests for intersection matrices, twist words, and the
elementary twist matrices and their products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from penner import (
    IntersectionMatrix,
    TwistWord,
    generator,
    scale,
    twist_product,
    validate_omega,
)
from penner.catalog import catalog_get, catalog_ids
from penner.core import exact, identity_matrix, mat_mul
from penner.errors import (
    IndexOutOfRange,
    InvalidWord,
    NegativeEntry,
    NonpositiveScale,
    NonzeroDiagonal,
    NotSquare,
    NotSymmetric,
)

from conftest import general_word, random_omega, random_rational_omega, tour_path


# ---------------------------------------------------------------------------
# scalars and validation
# ---------------------------------------------------------------------------

def test_exact_coercions():
    assert exact(3) == 3 and isinstance(exact(3), int)
    assert exact("3/2") == Fraction(3, 2)
    assert exact(Fraction(4, 2)) == 2 and isinstance(exact(Fraction(4, 2)), int)


def test_validate_omega_accepts_strings():
    om = validate_omega([[0, "1/2"], ["1/2", 0]])
    assert om.entry(1, 2) == Fraction(1, 2)


@pytest.mark.parametrize(
    "rows,exc",
    [
        ([[0, 1], [1, 0], [0, 0]], NotSquare),
        ([[0, 1], [2, 0]], NotSymmetric),
        ([[1, 1], [1, 0]], NonzeroDiagonal),
        ([[0, -1], [-1, 0]], NegativeEntry),
    ],
)
def test_validate_omega_rejections(rows, exc):
    with pytest.raises(exc):
        validate_omega(rows)


def test_scale_rejects_nonpositive(omega3):
    with pytest.raises(NonpositiveScale):
        scale(omega3, 0)
    with pytest.raises(NonpositiveScale):
        scale(omega3, -2)
    assert scale(omega3, Fraction(1, 2)).entry(1, 2) == Fraction(1, 2)


def test_index_bounds(omega3):
    with pytest.raises(IndexOutOfRange):
        omega3.entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        omega3.entry(1, 4)


# ---------------------------------------------------------------------------
# twist words
# ---------------------------------------------------------------------------

def test_word_rejects_adjacent_repeat():
    # the message names the letter to merge, not a Python method
    with pytest.raises(InvalidWord, match="merge the two letters 1 into one whose power"):
        TwistWord((1, 1, 2), (1, 1, 1))


def test_word_rejects_nonpositive_power():
    with pytest.raises(InvalidWord):
        TwistWord((1, 2), (1, 0))


def test_booleans_are_not_curve_indices_or_exponents(omega3):
    with pytest.raises(IndexOutOfRange, match=r"^curve index True out of range 1\.\.3$"):
        generator(omega3, True)
    with pytest.raises(IndexOutOfRange, match=r"^curve index False out of range 1\.\.3$"):
        omega3.entry(1, False)
    with pytest.raises(InvalidWord, match=r"^exponents must be positive integers, got True$"):
        TwistWord((2, 1, 3), (True, 1, 2))
    with pytest.raises(InvalidWord,
                       match=r"^curve indices must be positive integers, got True$"):
        TwistWord((1, True, 3), (1, 1, 1))


# ---------------------------------------------------------------------------
# generators and products
# ---------------------------------------------------------------------------

def test_generator_matches_definition(omega3):
    # Q_2 = I + D_2 * omega: only row 2 differs from the identity
    q = generator(omega3, 2)
    assert q == ((1, 0, 0), (1, 1, 1), (0, 0, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_generator_is_identity_plus_row_of_omega(seed):
    # Q_i = I + e_i omega_i^T, entry by entry, on rational omega
    rng = random.Random(seed)
    om = random_rational_omega(rng, rng.randint(1, 6))
    n = om.n
    for i in range(1, n + 1):
        q = generator(om, i)
        assert q == tuple(tuple(exact((r == c) + (r == i - 1) * om.entries[i - 1][c])
                                for c in range(n)) for r in range(n))
    for bad in (0, n + 1):
        with pytest.raises(IndexOutOfRange, match=rf"^curve index {bad} out of range 1\.\.{n}$"):
            generator(om, bad)


def test_power_identity(omega3):
    # Q_i(omega)^k == Q_i(k * omega)
    for i in (1, 2, 3):
        for k in (2, 3, 5):
            q = generator(omega3, i)
            powered = identity_matrix(3)
            for _ in range(k):
                powered = mat_mul(q, powered)
            assert powered == generator(scale(omega3, k), i)


def naive_product(omega, word):
    out = identity_matrix(omega.n)
    for i, p in zip(word.gamma, word.powers):
        q = generator(omega, i)
        for _ in range(p):
            out = mat_mul(q, out)
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_twist_product_matches_naive(seed):
    # at a random positive rational scale, so the fast product is checked
    # on Fraction entries as well as integers
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6))
    word = general_word(om, rng)
    om = scale(om, Fraction(rng.randint(1, 12), rng.randint(1, 12)))
    assert twist_product(om, word) == naive_product(om, word)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_product_dominates_i_plus_omega(seed):
    # M >= I + omega entrywise for general words
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6))
    word = general_word(om, rng)
    m = twist_product(om, word)
    assert all(m[r][c] >= (r == c) + om.entries[r][c]
               for r in range(om.n) for c in range(om.n))


@pytest.mark.parametrize("entry_id", catalog_ids())
def test_catalog_tour_products_match_naive(entry_id):
    # the recipe's inputs: every catalog entry, spanning-tree tour from
    # curve 1, at the scales k = 1, 2, 3
    omega = catalog_get(entry_id).omega
    gamma = tour_path(omega)
    word = TwistWord(gamma, (1,) * len(gamma))
    for k in (1, 2, 3):
        om = scale(omega, k)
        assert twist_product(om, word) == naive_product(om, word), k


def test_word_order_convention(omega3):
    # the first letter of the word is the rightmost (first-applied) factor
    w = TwistWord((1, 2), (1, 1))
    expected = mat_mul(generator(omega3, 2), generator(omega3, 1))
    assert twist_product(omega3, w) == expected
