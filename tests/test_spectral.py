"""Tests for exact characteristic polynomials, ranks, the structure of the
characteristic polynomial of twist products, leading eigenvalues, the
invariant alternating form, and the height function."""

import math
import random
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy import GF, QQ, ZZ
from sympy.polys.matrices import DomainMatrix

from penner import (
    IntersectionMatrix,
    Poly,
    SpectralReport,
    TwistWord,
    char_poly_exact,
    complexity,
    convergence_diagnostic,
    degree_of_pf_root,
    is_reciprocal,
    pf_certify,
    pf_eigenvalue,
    rank_exact,
    ray_convergence_experiment,
    scale,
    spectral_report,
    structure_split,
    twist_product,
    validate_omega,
)
import penner.modp
import penner.spectral
from penner.catalog import catalog_get, catalog_ids
from penner.errors import (
    DivisionFailed,
    NotPerronFrobenius,
    PreconditionViolated,
)
from penner.graphs import bipartition, graph_of, is_connected, spanning_tree_tour
from penner.modp import TABLE_PRIMES, charpoly_mod, krylov_charpoly_mod, residues
from penner.spectral import (
    ROOT_BOUND_MARGIN,
    all_roots,
    brackets_root,
    charpoly_bound,
    poly_str,
    refine_real_root,
    root_bound_bits,
    squarefree_parts,
    strip_unit_root,
    trace_polynomial,
    twist_charpoly,
    unfold,
)

from conftest import (
    count_calls,
    count_pf_eigenvalue,
    general_word,
    height,
    random_omega,
    random_rational_omega,
    sympy_mat_vec,
    sympy_preserves_form,
)


# ---------------------------------------------------------------------------
# Poly basics
# ---------------------------------------------------------------------------

def test_poly_str():
    assert str(Poly([-1, 5, -7, 1])) == "x^3 - 7*x^2 + 5*x - 1"
    assert str(Poly([0, 1, 1])) == "x^2 + x"


def test_poly_divide_linear():
    p = Poly([-1, 0, 1])  # x^2 - 1
    assert p.divide_linear(1) == (Poly([1, 1]), 0)
    assert p.divide_linear(Fraction(1, 2)) == (Poly([Fraction(1, 2), 1]), Fraction(-3, 4))
    assert Poly([5]).divide_linear(3) == (Poly([0]), 5)


_exact_scalars = st.one_of(st.integers(-10**12, 10**12),
                           st.fractions(max_denominator=10**6))


@settings(max_examples=100, deadline=None)
@given(st.lists(_exact_scalars, min_size=1, max_size=12),
       st.one_of(st.integers(-50, 50), st.fractions(max_denominator=100)))
def test_divide_linear_matches_sympy(coeffs, r):
    # oracle: sympy's division by x - r over QQ
    x = sympy.Symbol("x")
    p = Poly(coeffs)
    quotient, remainder = p.divide_linear(r)
    sq, sr = sympy.div(
        sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in p.leading_first()], x, domain=QQ),
        sympy.Poly(x - sympy.Rational(r.numerator, r.denominator), x, domain=QQ))
    assert quotient == Poly([Fraction(int(c.p), int(c.q)) for c in reversed(sq.all_coeffs())])
    assert remainder == Fraction(int(sr.LC().p), int(sr.LC().q))
    assert p(r) == remainder


def test_poly_mul():
    assert Poly([1, 1]) * Poly([1, 1]) == Poly([1, 2, 1])
    assert Poly([0, 1]) * Poly([1, 1]) == Poly([0, 1, 1])


def test_poly_rejects_inexact_coefficients():
    with pytest.raises(TypeError):
        Poly([1, 0.5])
    with pytest.raises(TypeError):
        Poly([mp.mpf(1)])


def test_poly_mpf_coeffs_leading_first():
    with mp.workdps(30):
        cs = Poly([Fraction(1, 3), 0, 2]).mpf_coeffs()
        assert cs == [mp.mpf(2), mp.mpf(0), mp.mpf(1) / 3]
        assert all(isinstance(c, mp.mpf) for c in cs)


# ---------------------------------------------------------------------------
# characteristic polynomial and rank against an independent oracle
# ---------------------------------------------------------------------------

def s43_tour_product(k):
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    return twist_product(scale(entry.omega, k), TwistWord(tour, (1,) * len(tour)))


def assert_char_poly_matches_determinants(m):
    """``chi(t) == det(t I - M)`` at ``n + 1`` integer points, with the
    determinants from fraction-free Bareiss elimination (sympy's dense
    ``DomainMatrix.det`` over ZZ or QQ; independent of the Berkowitz
    ``charpoly`` under test)."""
    chi = char_poly_exact(m)
    n = len(m)
    assert chi.degree == n and chi.coeffs[-1] == 1
    domain = ZZ if all(isinstance(x, int) for row in m for x in row) else QQ
    for t in range(n + 1):
        rows = [[(t if i == j else 0) - x for j, x in enumerate(row)]
                for i, row in enumerate(m)]
        det = DomainMatrix.from_list(rows, domain).det()
        assert chi(t) == Fraction(int(det.numerator), int(det.denominator))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.none())
@example(0, 1)
@example(0, 64)
@example(0, 256)
def test_char_poly_matches_sympy(seed, s43_scale):
    if s43_scale is not None:
        assert_char_poly_matches_determinants(s43_tour_product(s43_scale))
        return
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    integral = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
    assert_char_poly_matches_determinants(integral)
    rational = tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n))
        for _ in range(n)
    )
    assert_char_poly_matches_determinants(rational)


def random_rank_matrix(rng, n, rank, entry):
    """An ``n x n`` matrix ``A B``, ``A`` of size ``n x rank`` and ``B`` of
    size ``rank x n`` with entries drawn by ``entry(rng)``: of rank at most
    ``rank``, with zero pivots along the way."""
    a = [[entry(rng) for _ in range(rank)] for _ in range(n)]
    b = [[entry(rng) for _ in range(n)] for _ in range(rank)]
    return IntersectionMatrix(tuple(tuple(sum(a[i][t] * b[t][j] for t in range(rank))
                                          for j in range(n)) for i in range(n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["omega", "integer", "rational"]))
def test_rank_matches_sympy(seed, kind):
    # an omega, or a general square matrix of random rank, integral or not
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    if kind == "omega":
        om = random_omega(rng, rng.randint(1, 6), connected=False)
    elif kind == "integer":
        om = random_rank_matrix(rng, n, rng.randint(0, n), lambda r: r.randint(-5, 5))
    else:
        om = random_rank_matrix(rng, n, rng.randint(0, n),
                                lambda r: Fraction(r.randint(-5, 5), r.randint(1, 6)))
    assert rank_exact(om) == sympy.Matrix(om.entries).rank()


def test_rank_of_every_catalog_entry_matches_sympy():
    for entry_id in catalog_ids():
        om = catalog_get(entry_id).omega
        assert rank_exact(om) == sympy.Matrix(om.entries).rank(), entry_id


def test_rank_handles_fractions():
    # curves 2 and 3 meet only curve 1, in proportional rational amounts
    om = validate_omega([[0, "1/2", "1/4"], ["1/2", 0, 0], ["1/4", 0, 0]])
    assert rank_exact(om) == 2


# ---------------------------------------------------------------------------
# characteristic polynomials of twist products modulo one prime
# ---------------------------------------------------------------------------

def catalog_tour_words(omega):
    """Tours of ``omega`` from its first, middle and last curve, with unit
    powers and with the powers 1, 2, 3 repeating."""
    g = graph_of(omega)
    for root in sorted({1, omega.n // 2 + 1, omega.n}):
        tour = spanning_tree_tour(g, root=root)
        yield TwistWord(tour, (1,) * len(tour))
        yield TwistWord(tour, tuple(1 + j % 3 for j in range(len(tour))))


def sympy_twist_charpoly(omega, word):
    return char_poly_exact(twist_product(omega, word))


@pytest.mark.parametrize("k", [1, 2, 3, 64, 256, 1000])
def test_twist_charpoly_matches_sympy_on_the_catalog(k):
    for cid in catalog_ids():
        omega = scale(catalog_get(cid).omega, k)
        for word in catalog_tour_words(omega):
            assert twist_charpoly(omega, word) == sympy_twist_charpoly(omega, word), (
                cid, word)


def test_twist_charpoly_matches_sympy_on_a_rational_omega():
    omega = scale(catalog_get("S43-max").omega, Fraction(1, 3))
    word = next(catalog_tour_words(omega))
    chi = twist_charpoly(omega, word)
    assert chi == sympy_twist_charpoly(omega, word)
    assert any(isinstance(c, Fraction) for c in chi.coeffs)


@pytest.mark.parametrize("entries", [
    scale(catalog_get("S43-max").omega, Fraction(1, 3)).entries,
    ((0, Fraction(1, 2)), (Fraction(1, 2), 0)),
], ids=["S43-max/3", "half"])
def test_rational_twist_charpoly_takes_a_prime_of_at_most_256_bits(entries, monkeypatch):
    # the denominators of the coefficients divide the product of the letters'
    # row denominators, which sizes the prime, not D^n; the prime is the last
    # argument of whichever modular kernel runs
    omega = validate_omega(entries)
    word = next(catalog_tour_words(omega))
    krylov = count_calls(monkeypatch, penner.modp, "krylov_charpoly_mod")
    hessenberg = count_calls(monkeypatch, penner.modp, "charpoly_mod")
    assert twist_charpoly(omega, word) == sympy_twist_charpoly(omega, word)
    primes = [args[-1] for args in krylov + hessenberg]
    assert [prime.bit_length() <= 256 for prime in primes] == [True]


def test_table_primes_are_sympys_nextprime():
    primes = penner.modp.TABLE_PRIMES
    assert len(primes) == 16
    for j, prime in enumerate(primes):
        bits = 64 * (j + 1)
        assert prime == sympy.nextprime(2 ** bits), bits


def test_a_bound_past_1024_bits_goes_to_berkowitz(monkeypatch):
    # 4 * bound below 2^1024 takes the last prime of the table, 2^1024 + 643;
    # from 2^1024 on, sympy's Berkowitz gives the polynomial
    m = ((2, Fraction(1, 3)), (-1, 5))
    primes = count_calls(monkeypatch, penner.modp, "charpoly_mod")
    berkowitz = count_calls(monkeypatch, penner.spectral, "char_poly_exact")
    expected = Poly([Fraction(31, 3), -7, 1])
    lifted = penner.spectral._charpoly_lifted
    assert lifted(m, 2 ** 1022 - 1, [3, 3, 3]) == expected
    assert [prime for _h, prime in primes] == [2 ** 1024 + 643] and berkowitz == []
    assert lifted(m, 2 ** 1022, [3, 3, 3]) == expected
    assert len(primes) == 1 and berkowitz == [(m,)]


def test_hadamard_charpoly_past_the_table_is_berkowitz_and_fast():
    # the S43-max tour product at k = 256 has a 6,186-bit Hadamard bound
    omega = scale(catalog_get("S43-max").omega, 256)
    tour = spanning_tree_tour(graph_of(omega), root=1)
    m = twist_product(omega, TwistWord(tour, (1,) * len(tour)))
    start = time.perf_counter()
    chi = penner.spectral.hadamard_charpoly(m)
    assert time.perf_counter() - start < 5
    assert chi == char_poly_exact(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_charpoly_mod_with_a_composite_modulus_is_right_or_raises(seed):
    # the kernel's arithmetic holds modulo any integer; only a pivot that
    # shares a factor with the modulus stops it, with ValueError
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    modulus = rng.choice([4, 6, 15, 35, 1001, 2 ** 64 * 3])
    m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    expected = [c % modulus for c in char_poly_exact(m).coeffs]
    try:
        residues = penner.modp.charpoly_mod([[x % modulus for x in row] for row in m],
                                            modulus)
    except ValueError:
        return
    assert residues == expected


def random_word(rng, n):
    """A random word on curves ``1..n``: consecutive letters differ."""
    gamma = [rng.randint(1, n)]
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        gamma.append(rng.choice([i for i in range(1, n + 1) if i != gamma[-1]]))
    return TwistWord(tuple(gamma), tuple(rng.randint(1, 3) for _ in gamma))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 5, Fraction(1, 2), Fraction(7, 3)]))
def test_twist_charpoly_matches_sympy_on_random_words(seed, k):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    omega = scale(random_omega(rng, n, connected=False), k)
    word = random_word(rng, n)
    assert twist_charpoly(omega, word) == sympy_twist_charpoly(omega, word)


def test_twist_charpoly_matches_sympy_on_long_words_over_rational_omegas():
    # each entry gets its own denominator, so E, the product over the letters
    # of their row's denominator, can exceed gcd(E, D^n), D the product's
    # common denominator; E alone sizes the prime
    beyond_gcd = 0
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        rows = [list(r) for r in random_omega(rng, n, connected=False).entries]
        for a in range(n):
            for b in range(a + 1, n):
                rows[a][b] = rows[b][a] = Fraction(rows[a][b], rng.randint(1, 6))
        omega = validate_omega(rows)
        gamma = [rng.randint(1, n)]
        for _ in range(rng.randint(19, 59)):
            gamma.append(rng.choice([i for i in range(1, n + 1) if i != gamma[-1]]))
        word = TwistWord(tuple(gamma), tuple(rng.randint(1, 3) for _ in gamma))
        m = twist_product(omega, word)
        e = math.prod(math.lcm(*(x.denominator for x in omega.entries[g - 1]))
                      for g in gamma)
        d = math.lcm(*(x.denominator for row in m for x in row))
        beyond_gcd += e > math.gcd(e, d ** n)
        assert twist_charpoly(omega, word) == char_poly_exact(m), seed
    assert beyond_gcd > 0


def krylov_determinant(m):
    """``det(v, M v, ..., M^(n-1) v)`` for ``v = (1, ..., 1)``, by sympy."""
    columns = [sympy.ones(len(m), 1)]
    for _ in range(len(m) - 1):
        columns.append(sympy.Matrix(m) * columns[-1])
    return Fraction(str(sympy.Matrix.hstack(*columns).det()))


def letters(word):
    return list(zip(word.gamma, word.powers))


def half_krylov_rank(m, prime):
    """The rank modulo ``prime`` of ``v, N v, ..., N^(n/2-1) v`` for
    ``v = (1, ..., 1)`` and ``N = M + M^-1``, by sympy."""
    a = sympy.Matrix(m)
    n_matrix = a + a.inv()
    columns = [sympy.ones(len(m), 1)]
    for _ in range(len(m) // 2 - 1):
        columns.append(n_matrix * columns[-1])
    rows = [residues([Fraction(str(x)) for x in row], prime)
            for row in sympy.Matrix.hstack(*columns).tolist()]
    return DomainMatrix([[GF(prime)(x) for x in row] for row in rows],
                        (len(m), len(m) // 2), GF(prime)).rank()


def letters_two_coloured(omega, word):
    """Whether the graph whose edges join each letter's curve to the curves
    its row of ``omega`` meets is bipartite."""
    n = omega.n
    edges = [[0] * n for _ in range(n)]
    for g in set(word.gamma):
        for i, x in enumerate(omega.entries[g - 1]):
            if x:
                edges[g - 1][i] = edges[i][g - 1] = 1
    return bipartition(graph_of(IntersectionMatrix(tuple(map(tuple, edges))))) is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_krylov_charpoly_mod_is_hessenbergs_on_random_words(seed, rational):
    # modulo each prime that divides no denominator of omega: the kernel's
    # residues where its Krylov vectors are independent, None where they are
    # not; those are v, ..., N^(n/2-1) v, N = M + M^-1, for even n where the
    # letters' rows are 2-coloured, else v, ..., M^(n-1) v
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    omega = random_rational_omega(rng, n) if rational else random_omega(rng, n)
    while not is_connected(graph_of(omega)):
        omega = random_rational_omega(rng, n)
    word = random_word(rng, n)
    m = twist_product(omega, word)
    det = krylov_determinant(m)
    for prime in (2, 3, 5, 7, 11, 13, TABLE_PRIMES[0], TABLE_PRIMES[-1]):
        if any(x.denominator % prime == 0 for row in omega.entries for x in row):
            continue
        found = krylov_charpoly_mod(omega.entries, letters(word), prime)
        if n % 2 == 0 and letters_two_coloured(omega, word):
            assert (found is None) == (half_krylov_rank(m, prime) < n // 2), prime
        else:
            assert (found is None) == (residues([det], prime) == [0]), prime
        if found is not None:
            assert found == charpoly_mod([residues(row, prime) for row in m], prime), prime
    assert twist_charpoly(omega, word) == char_poly_exact(m)


def star_tour(leaves):
    """``K_(1, leaves)``, rank 2, and its tour from the centre."""
    n = leaves + 1
    omega = validate_omega([[int((i == 0) != (j == 0)) for j in range(n)] for i in range(n)])
    tour = spanning_tree_tour(graph_of(omega), root=1)
    return omega, TwistWord(tour, (1,) * len(tour))


def test_a_word_over_the_three_star_takes_the_half_size_path(monkeypatch):
    # K_(1,3) has rank 2 = n - 2: M fixes the plane ker omega, so no vector
    # has four independent Krylov vectors under M, but T = (y - 2) (y - t)
    # needs only v and N v
    omega, word = star_tour(3)
    assert rank_exact(omega) == 2
    for prime in (5, TABLE_PRIMES[0]):
        m = [residues(row, prime) for row in twist_product(omega, word)]
        assert krylov_charpoly_mod(omega.entries, letters(word), prime) == charpoly_mod(m, prime)
    hessenberg = count_calls(monkeypatch, penner.modp, "charpoly_mod")
    assert twist_charpoly(omega, word) == sympy_twist_charpoly(omega, word)
    assert hessenberg == []


def test_a_word_over_the_star_falls_back_to_hessenberg(monkeypatch):
    # K_(1,5): rank 2, n = 6, and (y - 2)^2 divides T, while N is 2 on the
    # four-dimensional ker omega, so v, N v, N^2 v are dependent
    omega, word = star_tour(5)
    assert rank_exact(omega) == 2
    for prime in (5, TABLE_PRIMES[0]):
        assert krylov_charpoly_mod(omega.entries, letters(word), prime) is None
    hessenberg = count_calls(monkeypatch, penner.modp, "charpoly_mod")
    assert twist_charpoly(omega, word) == sympy_twist_charpoly(omega, word)
    assert len(hessenberg) == 1


def test_the_fallback_is_sympys_on_the_catalog(monkeypatch):
    monkeypatch.setattr(penner.spectral, "krylov_charpoly_mod", lambda *args: None)
    hessenberg = count_calls(monkeypatch, penner.modp, "charpoly_mod")
    for cid in catalog_ids():
        omega = catalog_get(cid).omega
        tour = spanning_tree_tour(graph_of(omega), root=1)
        word = TwistWord(tour, (1,) * len(tour))
        assert twist_charpoly(omega, word) == sympy_twist_charpoly(omega, word), cid
    assert len(hessenberg) == len(catalog_ids())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_krylov_charpoly_mod_with_a_composite_modulus_is_right_or_raises(seed):
    # as for charpoly_mod: right modulo any integer, unless a pivot shares a
    # factor with the modulus (ValueError) or, with the Krylov determinant not
    # a unit, no column has a nonzero pivot left (None)
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    modulus = rng.choice([4, 6, 15, 35, 1001, 2 ** 64 * 3])
    omega = random_omega(rng, n)
    word = random_word(rng, n)
    m = twist_product(omega, word)
    try:
        found = krylov_charpoly_mod(omega.entries, letters(word), modulus)
    except ValueError:
        return
    if found is None:
        assert math.gcd(int(krylov_determinant(m)), modulus) > 1
    else:
        assert found == [c % modulus for c in char_poly_exact(m).coeffs]


def random_bipartite(rng, rational):
    """A connected bipartite ``omega`` on an even number of curves, at most
    eight, each entry over its own denominator when ``rational``."""
    a = rng.randint(1, 4)
    b = rng.choice([b for b in range(1, 5) if (a + b) % 2 == 0])
    rows = [list(row) for row in bipartite_omega(rng, a, b).entries]
    if rational:
        for i in range(a):
            for j in range(a, a + b):
                rows[i][j] = rows[j][i] = Fraction(rows[i][j], rng.randint(1, 9))
    return validate_omega(rows)


def singular_omega(rng, n):
    """A random ``omega`` on ``n >= 2`` curves with two equal rows."""
    rows = [list(row) for row in random_omega(rng, n, connected=False).entries]
    a, b = rng.sample(range(n), 2)
    for i in range(n):
        rows[b][i] = rows[i][b] = rows[a][i]
    rows[a][b] = rows[b][a] = rows[b][b] = 0
    return validate_omega(rows)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["integral", "rational", "singular"]))
def test_a_word_and_its_reversal_share_one_characteristic_polynomial(seed, kind):
    # L_g^T omega = omega L_g, so M^T omega = omega R for the letters in
    # reverse order: similar where omega is invertible, and equal
    # characteristic polynomials for every omega
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    omega = {"integral": lambda: random_omega(rng, n, connected=False),
             "rational": lambda: random_rational_omega(rng, n),
             "singular": lambda: singular_omega(rng, n)}[kind]()
    if kind == "singular":
        assert rank_exact(omega) < n
    word = random_word(rng, n)
    reversal = TwistWord(word.gamma[::-1], word.powers[::-1])
    assert (char_poly_exact(twist_product(omega, word))
            == char_poly_exact(twist_product(omega, reversal)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_a_bipartite_omega_on_evenly_many_curves_has_a_palindromic_charpoly(seed, rational):
    # D M D = R^-1 for the 2-colouring D, and chi_R = chi_M
    rng = random.Random(seed)
    omega = random_bipartite(rng, rational)
    coeffs = char_poly_exact(twist_product(omega, random_word(rng, omega.n))).coeffs
    assert coeffs == coeffs[::-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_krylov_charpoly_mod_on_bipartite_omegas_is_hessenbergs(seed, rational):
    rng = random.Random(seed)
    omega = random_bipartite(rng, rational)
    word = random_word(rng, omega.n)
    m = twist_product(omega, word)
    for prime in (2, 3, 5, 7, 11, 13, TABLE_PRIMES[0], TABLE_PRIMES[-1]):
        if any(x.denominator % prime == 0 for row in omega.entries for x in row):
            continue
        found = krylov_charpoly_mod(omega.entries, letters(word), prime)
        if found is not None:
            assert found == charpoly_mod([residues(row, prime) for row in m], prime), prime
    assert twist_charpoly(omega, word) == char_poly_exact(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_the_half_size_kernel_with_a_composite_modulus_is_right_or_raises(seed):
    # a None needs half-size Krylov vectors dependent modulo a prime factor
    # of the modulus, and so a full-size Krylov determinant that is no unit
    rng = random.Random(seed)
    modulus = rng.choice([4, 6, 15, 35, 1001, 2 ** 64 * 3])
    omega = random_bipartite(rng, False)
    word = random_word(rng, omega.n)
    m = twist_product(omega, word)
    try:
        found = krylov_charpoly_mod(omega.entries, letters(word), modulus)
    except ValueError:
        return
    if found is None:
        assert math.gcd(int(krylov_determinant(m)), modulus) > 1
    else:
        assert found == [c % modulus for c in char_poly_exact(m).coeffs]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_charpoly_bound_holds_on_random_words(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    omega = random_omega(rng, n, max_entry=rng.choice([3, 10**6]), connected=False)
    word = random_word(rng, n)
    bound = charpoly_bound(omega, word)
    assert all(abs(c) <= bound for c in sympy_twist_charpoly(omega, word).coeffs)


def test_charpoly_bound_holds_on_the_catalog():
    for cid in catalog_ids():
        for k in (1, 64, Fraction(1, 3)):
            omega = scale(catalog_get(cid).omega, k)
            for word in catalog_tour_words(omega):
                bound = charpoly_bound(omega, word)
                assert all(abs(c) <= bound
                           for c in sympy_twist_charpoly(omega, word).coeffs), (cid, k)


def test_charpoly_bound_on_the_s43_max_tour():
    # the bit lengths the docstring of charpoly_bound quotes
    omega = catalog_get("S43-max").omega
    word = next(catalog_tour_words(omega))
    scales = (1, 2, 3, 27, 243)
    assert [charpoly_bound(scale(omega, k), word).bit_length() for k in scales] == [
        118, 148, 169, 302, 446]
    assert [max(abs(c).bit_length() for c in sympy_twist_charpoly(scale(omega, k), word).coeffs)
            for k in scales] == [63, 95, 119, 261, 406]


# ---------------------------------------------------------------------------
# structure of the characteristic polynomial
# ---------------------------------------------------------------------------

def test_triangle_charpoly(omega3):
    m = twist_product(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    assert char_poly_exact(m) == Poly([-1, 5, -7, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_structure_split_properties(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6))
    word = general_word(om, rng)
    m = twist_product(om, word)
    chi = char_poly_exact(m)
    r = rank_exact(om)
    exponent, reduced = structure_split(chi, r)
    assert exponent == om.n - r
    assert reduced(1) != 0
    assert reduced.degree == r
    # det == 1 and constant coefficient of the reduced polynomial is +-1
    assert sympy.Matrix(m).det() == 1
    assert reduced.coeffs[0] in (1, -1)
    # complexity equals rank for general words
    assert complexity(reduced) == r
    assert strip_unit_root(chi)[0] >= om.n - r


def test_structure_split_rejects_wrong_rank(omega3):
    m = twist_product(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    chi = char_poly_exact(m)
    with pytest.raises(DivisionFailed):
        structure_split(chi, 1)
    with pytest.raises(DivisionFailed, match="rank 4 exceeds polynomial degree 3"):
        structure_split(chi, 4)


# ---------------------------------------------------------------------------
# leading eigenvalue
# ---------------------------------------------------------------------------

def test_pf_eigenvalue_cubic_fixture():
    # largest real root of x^3 - 7x^2 + 5x - 1, verified by exact bisection
    lam = pf_eigenvalue(Poly([-1, 5, -7, 1]), digits=50)
    assert abs(lam.value - mp.mpf("6.2222625231203986")) < 1e-12
    assert lam.error < 1e-40


def test_pf_certify_and_lower_bound(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    assert pf_certify(omega3, word)
    lam = pf_eigenvalue(char_poly_exact(twist_product(omega3, word)))
    # lambda >= min_i (1 + sum_j omega[i][j]) for any PF twist product
    assert lam.value >= min(1 + sum(row) for row in omega3.entries)


def mpf_fraction(x):
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def test_s43_enclosure_is_proven_at_k27():
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    rep = spectral_report(scale(entry.omega, 27), TwistWord(tour, (1,) * len(tour)),
                          digits=50)
    lam, err = mpf_fraction(rep.pf_value), mpf_fraction(rep.pf_error)
    lo, hi = rep.reduced(lam - err), rep.reduced(lam + err)
    assert isinstance(lo, Fraction) and lo * hi < 0


@pytest.mark.parametrize("k", [38, 81, 256])
def test_s43_lambda_past_the_fixed_extra_precision(k):
    # log2(lambda) is 263, 314 and 390: the root finder's extra precision
    # must grow with the root bound
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    rep = spectral_report(scale(entry.omega, k), TwistWord(tour, (1,) * len(tour)))
    pf = pf_eigenvalue(rep.reduced)
    assert brackets_root(rep.reduced, pf.value, pf.error)
    assert degree_of_pf_root(rep)[0] == 24


@pytest.mark.parametrize("roots", [
    (2**600, 3, 5),
    (Fraction(2**600, 3), Fraction(1, 2), 7),
])
def test_all_roots_finds_roots_past_the_fixed_extra_precision(roots):
    p = Poly([1])
    for r in roots:
        p = p * Poly([-r, 1])
    found = sorted(all_roots(p), key=abs)
    for x, r in zip(found, sorted(roots)):
        assert abs(mp.im(x)) <= r * 2**-150
        assert abs(mpf_fraction(mp.re(x)) - r) <= r * 2**-150
    pf = pf_eigenvalue(p)
    assert brackets_root(p, pf.value, pf.error)
    assert abs(mpf_fraction(pf.value) - max(roots)) <= mpf_fraction(pf.error)


def test_all_roots_keeps_the_digits_of_coefficients_past_the_working_precision():
    # at k = 243 the trace polynomial of the S43-max tour has coefficients of
    # up to 402 bits, more than the 216 bits of 50 + 15 digits; rounded to
    # those, it would put its unit-modulus roots off by about 1e-11
    entry = catalog_get("S43-max")
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    reduced = spectral_report(scale(entry.omega, 243), TwistWord(tour, (1,) * len(tour))).reduced
    reference = all_roots(reduced, 120)
    with mp.workdps(135):
        for r in all_roots(reduced, 50):
            nearest = min(reference, key=lambda s: abs(s - r))
            assert abs(r - nearest) <= mp.mpf(10) ** -50 * abs(nearest), r


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.just(0), _exact_scalars), max_size=9),
       st.one_of(_exact_scalars, st.integers(-2**300, 2**300)).filter(bool))
@example([], 3)
@example([0, 0, 1], 1)
@example([-(2**600)], 1)
@example([Fraction(1, 10**6), 0, 0, 10**12], Fraction(-1, 10**6))
def test_root_bound_bits_bounds_every_root(lower, lead):
    # lower holds the coefficients below the leading one, constant first.
    # Every root of p has modulus <= R = 2^b iff every root of p(R y) lies
    # in the unit disk, where sympy's nroots converges
    p = Poly(lower + [lead])
    radius = Fraction(2) ** root_bound_bits(p)
    scaled = [Fraction(c) * radius ** i for i, c in enumerate(p.coeffs)]
    q = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(scaled)],
                   sympy.Symbol("x"), domain=QQ).sqf_part()
    assert all(abs(complex(y)) <= 1 + 1e-10 for y in q.nroots(maxsteps=200))


@settings(max_examples=100, deadline=None)
@given(st.lists(_exact_scalars, min_size=1, max_size=25),
       st.integers(-2**80, 2**80), st.integers(0, 120),
       st.integers(0, 2**80), st.integers(0, 120),
       st.sampled_from([None, Fraction(1, 3), 1]))
@example([1], -1, 0, 0, 0, None)  # x + 1 at -1: a negative end keeps its sign
def test_brackets_root_matches_sympy_signs(coeffs, num, shift, err, err_shift, root_at):
    # dyadic ends, held exactly by mpfs of 100 bits; root_at puts a root of
    # p inside the enclosure or on its upper end, so both answers occur
    v, e = sympy.Rational(num, 2 ** shift), sympy.Rational(err, 2 ** err_shift)
    with mp.workprec(100):
        value, error = mp.ldexp(num, -shift), mp.ldexp(err, -err_shift)
    p = Poly(coeffs)
    if root_at is not None:
        r = v + e * sympy.Rational(root_at.numerator, root_at.denominator)
        p = p * Poly([-Fraction(int(r.p), int(r.q)), 1])
    x = sympy.Symbol("x")
    q = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)],
                   x, domain=QQ)
    assert brackets_root(p, value, error) == (q.eval(v - e) * q.eval(v + e) <= 0)


@pytest.mark.parametrize("start", ["0", "0.5"])
def test_refine_real_roots_error_is_its_stopping_tolerance(start):
    # x^2 + 1 has no real root: from 0 the derivative is 0 at once, and from
    # 0.5 Newton wanders for its 200 steps; either way the error is the
    # tolerance 10^-(digits+5) max(1, |x|), here with |x| <= 1, and the
    # exact check rejects the answer
    p = Poly([1, 0, 1])
    pf = refine_real_root(p, mp.mpf(start), 20)
    with mp.workdps(35):
        assert pf.error == mp.mpf(10) ** -25
    assert not brackets_root(p, pf.value, pf.error)


def test_pf_eigenvalue_rejects_an_enclosure_without_a_root(monkeypatch):
    real = penner.spectral.refine_real_root

    def off_by_one(p, x0, digits):
        pf = real(p, x0, digits)
        return pf._replace(value=pf.value + 1)

    monkeypatch.setattr(penner.spectral, "refine_real_root", off_by_one)
    with pytest.raises(NotPerronFrobenius, match="does not enclose a root"):
        pf_eigenvalue(Poly([-1, 5, -7, 1]), 30)


def test_pf_eigenvalue_root_finding_failure(monkeypatch):
    def fail(*_args, **_kwargs):
        raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300")

    monkeypatch.setattr(penner.spectral, "_durand_kerner", fail)
    # a failed root finder proves nothing about Perron-Frobenius
    with pytest.raises(PreconditionViolated, match="root finding failed"):
        pf_eigenvalue(Poly([-1, 5, -7, 1]), 30)


@pytest.mark.parametrize("coeffs, message", [
    ([4, 0, 1], "dominant eigenvalue is not a simple real eigenvalue"),  # +-2i
    ([-1, 2], "leading eigenvalue 0.5 is not > 1"),
])
def test_pf_eigenvalue_refuses_a_dominant_root_that_is_not_real_and_above_1(coeffs, message):
    with pytest.raises(NotPerronFrobenius, match=f"^{message}"):
        pf_eigenvalue(Poly(coeffs), 30)


def test_pf_rejects_identity():
    with pytest.raises(NotPerronFrobenius):
        pf_eigenvalue(char_poly_exact(((1, 0), (0, 1))))


def test_disconnected_graph_not_certified():
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert not pf_certify(om, TwistWord((1, 2, 3), (1, 1, 1)))


def test_spectral_report(omega3):
    rep = spectral_report(omega3, TwistWord((1, 2, 3), (1, 1, 1)))
    assert rep.rank == 3 and rep.unit_exponent == 0
    assert rep.pf_value > 1 and rep.pf_error > 0
    assert complexity(rep.reduced) == 3


def test_spectral_report_computes_lambda_once_on_demand(omega3, monkeypatch):
    calls = count_pf_eigenvalue(monkeypatch)
    rep = spectral_report(omega3, TwistWord((1, 2, 3), (1, 1, 1)), digits=40)
    assert calls == []
    lam = rep.pf_value
    assert rep.pf_value is lam and rep.pf_error is not None
    assert len(calls) == 1
    assert lam == pf_eigenvalue(rep.reduced, 40).value


def test_uncertified_report_never_computes_lambda(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("pf_eigenvalue called for an uncertified report")

    monkeypatch.setattr(penner.spectral, "pf_eigenvalue", refuse)
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(NotPerronFrobenius):
        spectral_report(om, TwistWord((1, 2, 3), (1, 1, 1)))


NOT_CERTIFIED = ("twist product is not Perron-Frobenius: the intersection graph "
                 "must be connected and the path must visit every curve")


def test_a_report_builds_its_product_only_when_lambda_is_read():
    omega = catalog_get("S43-max").omega
    tour = spanning_tree_tour(graph_of(omega), root=1)
    word = TwistWord(tour, (1,) * len(tour))
    built = []

    def build():
        built.append(word)
        return twist_product(omega, word)

    chi = twist_charpoly(omega, word)
    report = SpectralReport.from_charpoly(chi, rank_exact(omega), 50, build)
    assert degree_of_pf_root(report)[0] == 24  # irreducible: no eigenvalue read
    assert built == []
    pf = pf_eigenvalue(chi, 50, twist_product(omega, word))
    assert (report.pf_value._mpf_, report.pf_error._mpf_) == (pf.value._mpf_, pf.error._mpf_)
    assert len(built) == 1


@pytest.mark.parametrize("entries, gamma, message", [
    ([[0]], (1,), "the twist product is not Perron-Frobenius: "
                  "a single curve meets nothing"),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], (1, 2, 3), NOT_CERTIFIED),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2), NOT_CERTIFIED),
], ids=["one-curve", "disconnected", "word-misses-a-curve"])
def test_spectral_report_rejects_uncertified_product(entries, gamma, message,
                                                     monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("algebra done for an uncertified product")

    for name in ("char_poly_exact", "rank_exact", "pf_eigenvalue"):
        monkeypatch.setattr(penner.spectral, name, refuse)
    word = TwistWord(gamma, (1,) * len(gamma))
    with pytest.raises(NotPerronFrobenius) as info:
        spectral_report(validate_omega(entries), word)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# invariant alternating form (bipartite case)
# ---------------------------------------------------------------------------

def bipartite_omega(rng, a, b, max_entry=3):
    rows = [[0] * (a + b) for _ in range(a + b)]
    for i in range(a):
        for j in range(a, a + b):
            v = rng.randint(0, max_entry)
            rows[i][j] = rows[j][i] = v
    # superimpose a connected zigzag: L_i - R_(i mod b) and R_j - L_((j+1) mod a)
    for i in range(a):
        j = a + (i % b)
        if rows[i][j] == 0:
            rows[i][j] = rows[j][i] = 1
    for j in range(a, a + b):
        i = (j - a + 1) % a
        if rows[i][j] == 0:
            rows[i][j] = rows[j][i] = 1
    return IntersectionMatrix(tuple(tuple(r) for r in rows))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_symplectic_and_reciprocal(seed):
    rng = random.Random(seed)
    om = bipartite_omega(rng, rng.randint(2, 3), rng.randint(2, 3))
    word = general_word(om, rng)
    m = twist_product(om, word)
    assert sympy_preserves_form(om, m)
    assert not sympy_preserves_form(om, tuple(tuple(2 * x for x in row) for row in m))
    exponent, reduced = structure_split(char_poly_exact(m), rank_exact(om))
    assert is_reciprocal(reduced)


def _sympy_expr(p, var):
    return sum(sympy.Rational(c.numerator, c.denominator) * var ** i
               for i, c in enumerate(p.coeffs))


@settings(max_examples=60, deadline=None)
@given(st.lists(_exact_scalars, min_size=1, max_size=9).filter(lambda h: h[0] != 0))
def test_trace_polynomial_unfolds_exactly(half):
    # p = c_0 + ... + c_m x^m + ... + c_0 x^(2m), palindromic of degree 2m
    m = len(half) - 1
    p = Poly(half + half[-2::-1])
    t = trace_polynomial(p)
    assert t is not None and t.degree == m
    x, y = sympy.symbols("x y")
    unfolded = sympy.expand(x ** m * _sympy_expr(t, y).subs(y, x + 1 / x))
    assert sympy.Poly(unfolded, x) == sympy.Poly(_sympy_expr(p, x), x)


@settings(max_examples=60, deadline=None)
@given(st.lists(_exact_scalars, min_size=2, max_size=9).filter(lambda h: h[0] != 0))
def test_trace_polynomial_folds_only_even_palindromes(half):
    assert trace_polynomial(Poly(half + half[::-1])) is None  # odd degree
    anti = Poly(half + [0] + [-c for c in half[::-1]])
    assert is_reciprocal(anti) and trace_polynomial(anti) is None
    skewed = Poly([half[0] + 1] + half[1:] + half[-2::-1])
    assert not is_reciprocal(skewed) and trace_polynomial(skewed) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(_exact_scalars, min_size=1, max_size=9).filter(lambda t: t[-1] != 0))
def test_unfold_inverts_trace_polynomial(coeffs):
    t = Poly(coeffs)
    p = unfold(t)
    assert p.degree == 2 * t.degree and is_reciprocal(p)
    assert trace_polynomial(p) == t
    assert unfold(trace_polynomial(p)) == p


def test_trace_polynomial_small_cases():
    # x^4 - 7x^3 + 13x^2 - 7x + 1 = x^2 ((y^2 - 2) - 7y + 13) with y = x + 1/x
    assert trace_polynomial(Poly([1, -7, 13, -7, 1])) == Poly([11, -7, 1])
    assert trace_polynomial(Poly([5])) == Poly([5])
    assert unfold(Poly([11, -7, 1])) == Poly([1, -7, 13, -7, 1])


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_pf_eigenvalue_locates_palindromes_on_the_trace_polynomial(seed):
    rng = random.Random(seed)
    om = bipartite_omega(rng, rng.randint(2, 3), rng.randint(2, 3))
    _exponent, reduced = structure_split(
        char_poly_exact(twist_product(om, general_word(om, rng))), rank_exact(om))
    sizes = []
    real = penner.spectral._durand_kerner

    def counted(part, *args):
        sizes.append(len(part.coeffs))
        return real(part, *args)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(penner.spectral, "_durand_kerner", counted)
        folded = pf_eigenvalue(reduced, 30)
        mpatch.setattr(penner.spectral, "trace_polynomial", lambda p: None)
        unfolded = pf_eigenvalue(reduced, 30)
    assert sizes == [reduced.degree // 2 + 1, reduced.degree + 1]
    assert brackets_root(reduced, folded.value, folded.error)
    assert abs(folded.value - unfolded.value) <= folded.error + unfolded.error


def test_all_roots_splits_unit_roots_exactly_and_folds_palindromes(monkeypatch):
    # (x - 1)^3 (x^2 - 3x + 1): three exact ones, then a pair x, 1/x found
    # on the trace polynomial y - 3
    unit = Poly([-1, 1])
    p = unit * unit * unit * Poly([1, -3, 1])
    sizes = []
    real = penner.spectral._durand_kerner

    def counted(part, *args):
        sizes.append(len(part.coeffs))
        return real(part, *args)

    monkeypatch.setattr(penner.spectral, "_durand_kerner", counted)
    roots = all_roots(p, 30)
    assert sizes == [2]
    assert roots[:3] == [1, 1, 1] and all(isinstance(r, mp.mpf) for r in roots[:3])
    x, inv = roots[3:]
    with mp.workdps(45):
        assert abs(x - (3 + mp.sqrt(5)) / 2) < 1e-30 and abs(x * inv - 1) < 1e-30
    assert all_roots(unit * unit, 30) == [1, 1] and sizes == [2]
    assert all_roots(Poly([7]), 30) == []
    # parts below eps are zeroed and the roots sorted by (|im|, re): the
    # real root of x^3 + 2 comes first, as an mpf
    real_root, *pair = all_roots(Poly([2, 0, 0, 1]), 20)
    assert isinstance(real_root, mp.mpf) and all(isinstance(z, mp.mpc) for z in pair)
    with mp.workdps(35):
        assert abs(real_root + mp.cbrt(2)) < 1e-30


# products of one to three squarefree integer factors of degree 1 to 3,
# each raised to a multiplicity from 1 to 3
_factor_powers = st.lists(
    st.tuples(st.lists(st.integers(-5, 5), min_size=2, max_size=4).filter(lambda c: c[-1]),
              st.integers(1, 3)),
    min_size=1, max_size=3)


def sympy_poly(p):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in p.leading_first()],
                      sympy.Symbol("x"), domain=QQ)


def from_sympy(g):
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())])


def product_of_powers(factor_powers):
    p = Poly([1])
    for coeffs, mult in factor_powers:
        part = from_sympy(sympy_poly(Poly(coeffs)).sqf_part())
        for _ in range(mult):
            p = p * part
    return p


def monic(p):
    return tuple(Fraction(c) / p.coeffs[-1] for c in p.coeffs)


@settings(max_examples=40, deadline=None)
@given(_factor_powers)
@example([([-1, 1], 3), ([2, 0, 1], 2)])  # (x - 1)^3 (x^2 + 2)^2
@example([([1, 1], 2), ([1, 1, 1], 1)])  # palindromic: y + 2 and y + 1
# palindromic: y + 1 and y + 3, and y = -3 flips the sign of sqrt(y^2 - 4)
@example([([1, 1, 1], 1), ([1, 3, 1], 1)])
def test_all_roots_on_repeated_roots_matches_sympy(factor_powers):
    # the multiset of roots against sympy's exact roots (radicals: every
    # irreducible factor has degree at most 3), matched greedily; a root of
    # multiplicity m must come back m times
    p = product_of_powers(factor_powers)
    got = all_roots(p)
    exact_roots = sympy.roots(sympy_poly(p))
    assert len(got) == sum(exact_roots.values()) == p.degree
    with mp.workdps(65):
        want = [mp.mpc(str(sympy.re(v)), str(sympy.im(v)))
                for r, m in exact_roots.items() for v in [r.evalf(60)] * m]
        for w in want:
            nearest = min(got, key=lambda r: abs(r - w))
            assert abs(nearest - w) <= mp.mpf(10) ** -30 * max(1, abs(w))
            got.remove(nearest)


@settings(max_examples=40, deadline=None)
@given(_factor_powers)
def test_squarefree_parts_match_sympys_sqf_list(factor_powers):
    p = product_of_powers(factor_powers)
    parts = squarefree_parts(p)
    expected = [(monic(from_sympy(g)), int(e)) for g, e in sympy_poly(p).sqf_list()[1]]
    assert sorted((monic(part), e) for part, e in parts) == sorted(expected)
    product = Poly([p.coeffs[-1]])
    for part, e in parts:
        for _ in range(e):
            product = product * Poly(monic(part))
    assert product == p


def test_squarefree_parts_when_the_prime_divides_the_discriminant_or_the_lead():
    # P = 2^64 + 13 divides the discriminant of the first polynomial and
    # the leading coefficient of the second; both are squarefree
    prime = 2 ** 64 + 13
    for p in (Poly([3, 1]) * Poly([3 + prime, 1]), Poly([-1, 0, prime])):
        assert [(Poly(monic(part)), e) for part, e in squarefree_parts(p)] == [
            (Poly(monic(p)), 1)]
    assert squarefree_parts(Poly([2, -3, 1])) == [(Poly([2, -3, 1]), 1)]
    with pytest.raises(ValueError):
        squarefree_parts(Poly([5]))


@pytest.mark.parametrize("a", [10, 100, 1000, 10 ** 5])
@pytest.mark.parametrize("d", [8, 12, 20])
def test_all_roots_converges_on_mignotte_polynomials(monkeypatch, a, d):
    # x^d - 2 (a x - 1)^2 has two real roots closer than a^-(d+2)/2 near 1/a;
    # the located roots rebuild its coefficients.  Each sweep evaluates the
    # polynomial d times; at d = 20 the iteration takes 35 to 173 sweeps.
    # The bound fails an iteration run on part(x + 1), whose larger
    # coefficients make it run all 300 sweeps at a = 10, 100 and 10^5
    coeffs = [-2, 4 * a, -2 * a * a] + [0] * (d - 3) + [1]
    p = Poly(coeffs)
    calls = []
    real = mp.polyval

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "polyval", counted)
    roots = all_roots(p)
    assert len(roots) == d
    assert len(calls) <= 200 * d
    with mp.workdps(65):
        rebuilt = [mp.mpf(1)]
        for r in roots:
            rebuilt = [c - r * b for c, b in zip(rebuilt + [0], [0] + rebuilt)]
        assert max(abs(u - v) for u, v in zip(rebuilt, p.mpf_coeffs())) <= 2 * a * a * 1e-30


def test_tiny_roots_do_not_lower_the_precision(monkeypatch):
    # (x - 2^-60)(x - 3 * 2^-60): the root bound is negative, and the extra
    # precision stays at the margin
    p = Poly([Fraction(3, 2 ** 120), Fraction(-4, 2 ** 60), 1])
    assert root_bound_bits(p) < 0
    extraprecs = []
    real = penner.spectral._durand_kerner

    def recorded(part, centre, extraprec):
        extraprecs.append(extraprec)
        return real(part, centre, extraprec)

    monkeypatch.setattr(penner.spectral, "_durand_kerner", recorded)
    roots = sorted(all_roots(p), key=abs)
    assert extraprecs == [ROOT_BOUND_MARGIN]
    for r, want in zip(roots, (Fraction(1, 2 ** 60), Fraction(3, 2 ** 60))):
        assert abs(mpf_fraction(mp.re(r)) - want) <= want * Fraction(1, 10 ** 50)


def test_every_root_finding_goes_through_all_roots(monkeypatch, omega3, divergent4):
    callers = []
    real = penner.spectral._durand_kerner

    def recorded(*args):
        frame = sys._getframe(1)
        callers.append(f"{frame.f_globals['__name__']}.{frame.f_code.co_name}")
        return real(*args)

    monkeypatch.setattr(penner.spectral, "_durand_kerner", recorded)
    word = TwistWord((1, 2, 3), (1, 1, 1))
    convergence_diagnostic(ray_convergence_experiment(omega3, word, (4,), digits=30),
                           digits=30)
    ray_convergence_experiment(divergent4, TwistWord((1, 2, 3, 4), (1, 1, 1, 1)),
                               (16, 32), digits=30)
    # two calls for the diagnostic and one per divergent scale; the
    # convergent ray's eigenvalue comes from its twist product's bounds
    assert callers == ["penner.spectral.all_roots"] * 4


def mpmath_polyroots(part, _centre, extraprec):
    """The reference root finder: mpmath's ``polyroots`` from its own start
    ``(0.4 + 0.9j)^i``, on coefficients rounded at ``extraprec`` extra bits."""
    with mp.workprec(mp.mp.prec + extraprec):
        coeffs = part.mpf_coeffs()
    return mp.polyroots(coeffs, maxsteps=300, extraprec=extraprec)


def by_mpmath(fn, *args):
    """``fn(*args)`` with :func:`mpmath_polyroots` in place of the package's
    Durand-Kerner iteration."""
    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(penner.spectral, "_durand_kerner", mpmath_polyroots)
        return fn(*args)


def assert_roots_match_mpmath(p, digits):
    # the roots and mpmath's agree as multisets, each within
    # 10^-(digits + 10) of its modulus
    ours, theirs = all_roots(p, digits), by_mpmath(all_roots, p, digits)
    assert len(ours) == len(theirs) == p.degree
    with mp.workdps(digits + 15):
        for r in theirs:
            nearest = min(ours, key=lambda s: abs(s - r))
            assert abs(nearest - r) <= mp.mpf(10) ** -(digits + 10) * abs(r), r
            ours.remove(nearest)


def pf_outcome(p, digits):
    try:
        pf = pf_eigenvalue(p, digits)
    except (NotPerronFrobenius, PreconditionViolated) as e:
        return type(e)
    return pf.value, pf.error


def catalog_tour_reduced(entry_id, k):
    """The reduced polynomial of the tour from root 1 of ``entry_id``, all
    powers 1, over ``k * Omega``."""
    entry = catalog_get(entry_id)
    tour = spanning_tree_tour(graph_of(entry.omega), root=1)
    return spectral_report(scale(entry.omega, k), TwistWord(tour, (1,) * len(tour))).reduced


def assert_seed_changes_no_bit_of_lambda(reduced, centre):
    # the roots agree with mpmath's from its own start, lambda and its
    # enclosure to the bit, and the iteration starts about ``centre``
    assert_roots_match_mpmath(reduced, 50)
    centres = []
    real = penner.spectral._durand_kerner

    def recorded(part, c, extraprec):
        centres.append(c)
        return real(part, c, extraprec)

    with pytest.MonkeyPatch.context() as mpatch:
        mpatch.setattr(penner.spectral, "_durand_kerner", recorded)
        pf = pf_eigenvalue(reduced, 50)
    plain = by_mpmath(pf_eigenvalue, reduced, 50)
    assert (pf.value, pf.error) == (plain.value, plain.error)
    assert brackets_root(reduced, pf.value, pf.error)
    assert centres == [centre]


@pytest.mark.parametrize("k", [1, 27, 243])
def test_the_seed_changes_no_root_and_no_bit_of_lambda_on_s43(k):
    # bipartite: located on the trace polynomial, centred at y = 2, whose
    # coefficients reach 402 bits at k = 243
    reduced = catalog_tour_reduced("S43-max", k)
    assert trace_polynomial(reduced) is not None
    assert_seed_changes_no_bit_of_lambda(reduced, 2)


@pytest.mark.parametrize("k", [1, 27, 243])
@pytest.mark.parametrize("entry_id", ["N41-rank8", "Mr-12"])
def test_the_seed_changes_no_root_and_no_bit_of_lambda_unfolded(entry_id, k):
    # not folded: located on the reduced polynomial itself, centred at x = 1
    reduced = catalog_tour_reduced(entry_id, k)
    assert trace_polynomial(reduced) is None
    assert_seed_changes_no_bit_of_lambda(reduced, 1)


@pytest.mark.parametrize("k, most", [(1, 276), (243, 1128)])
def test_the_seed_starts_at_the_crowd_of_roots_about_1(monkeypatch, k, most):
    # along k * Omega the roots other than lambda crowd toward x = 1, the
    # centre of the iteration's start; counted are its evaluations of the
    # degree-12 trace polynomial.  Started about 0 instead, it makes 372 and
    # 1,248.
    reduced = catalog_tour_reduced("S43-max", k)
    calls = []
    real = mp.polyval

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "polyval", counted)
    all_roots(reduced, 50)
    assert len(calls) <= most


def is_squarefree_poly(coeffs):
    p = sympy_poly(Poly(coeffs))
    return sympy.gcd(p, p.diff()).degree() == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=3, max_size=13)
       .filter(lambda c: c[-1] and is_squarefree_poly(c)))
@example([-1, 5, -7, 1])  # the triangle's characteristic polynomial
@example([2, 0, 0, 1])  # one real root and a complex pair
def test_the_seed_changes_no_root_and_no_bit_of_lambda(coeffs):
    p = Poly(coeffs)
    assert_roots_match_mpmath(p, 30)
    assert pf_outcome(p, 30) == by_mpmath(pf_outcome, p, 30)


def test_a_seed_mpmath_cannot_separate_still_fails_the_root_finding(monkeypatch):
    # with the complex start (0.4 + 0.9j)^i made real zeros, every point
    # starts at the centre x = 1 and the iteration stays on the real axis;
    # x^3 + 2 has a complex pair, so the loop runs its 300 steps and gives up
    monkeypatch.setattr(mp, "mpc", lambda _z: mp.mpf(0))
    with pytest.raises(PreconditionViolated, match="^root finding failed: "):
        all_roots(Poly([2, 0, 0, 1]), 30)


# ---------------------------------------------------------------------------
# height function
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_height_increment_identity(seed):
    # h(Q_i v) - h(v) == ||Q_i v - v||^2 exactly over the rationals
    from penner import generator

    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6), connected=False)
    i = rng.randint(1, om.n)
    v = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(om.n))
    qv = sympy_mat_vec(generator(om, i), v)
    lhs = height(om, qv) - height(om, v)
    rhs = sum((a - b) ** 2 for a, b in zip(qv, v))
    assert lhs == rhs


def test_height_is_exact_and_rejects_floats(omega3):
    assert height(omega3, [Fraction(1, 2), 1, 0]) == Fraction(1, 2)
    with pytest.raises(TypeError, match="not an exact scalar"):
        height(omega3, [0.1, 1, 0])
