"""Tests for the projection matrices, limit maps along closed paths,
their invariances, and the quantitative eigenvector estimate."""

import itertools
import random
from fractions import Fraction

import mpmath as mp
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from penner import (
    IntersectionMatrix,
    Poly,
    TwistWord,
    char_poly_exact,
    complexity,
    eigenvector_asymptotics,
    f_gamma,
    homotopy_invariance_check,
    p_gamma,
    pf_eigenvalue,
    puncture_augment,
    q_arrow,
    rank_exact,
    ray_convergence_experiment,
    run_recipe,
    scale,
)
import penner.boundary
import penner.modp
import penner.spectral
from penner.boundary import insert_spur
from penner.catalog import catalog_get, catalog_ids
from penner.core import exact, mat_mul
from penner.graphs import graph_of, spanning_tree_tour
from penner.errors import (
    IndexOutOfRange,
    NotAnEdge,
    NotGeneral,
    NotPerronFrobenius,
    NotSupported,
    PreconditionViolated,
    ValidationError,
)

from conftest import (
    collapsed_charpoly,
    count_calls,
    random_closed_walk,
    random_omega,
    random_rational_omega,
    tour_path,
)


# ---------------------------------------------------------------------------
# projection matrices
# ---------------------------------------------------------------------------

def test_q_arrow_example(omega3):
    # row 1 is replaced; column 1 of the result annihilates e_2^T omega
    assert q_arrow(omega3, 2, 1) == ((0, 0, -1), (0, 1, 0), (0, 0, 1))


def test_q_arrow_requires_edge(omega3):
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    with pytest.raises(NotAnEdge):
        q_arrow(om, 1, 3)
    with pytest.raises(NotAnEdge):
        q_arrow(omega3, 2, 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_q_arrow_is_identity_minus_scaled_row_of_omega(seed):
    # Q_{i<-j} = I - omega_ij^(-1) e_j omega_i^T, entry by entry, on rational omega
    rng = random.Random(seed)
    om = random_rational_omega(rng, rng.randint(2, 6))
    n = om.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w = om.entries[i - 1][j - 1]
            if w == 0:
                continue
            assert q_arrow(om, i, j) == tuple(
                tuple(exact((r == c) - (r == j - 1) * om.entries[i - 1][c] / Fraction(w))
                      for c in range(n)) for r in range(n))
    for bad in (0, n + 1):
        with pytest.raises(IndexOutOfRange, match=rf"^curve index {bad} out of range 1\.\.{n}$"):
            q_arrow(om, bad, 1)
        with pytest.raises(IndexOutOfRange, match=rf"^curve index {bad} out of range 1\.\.{n}$"):
            q_arrow(om, 1, bad)
    with pytest.raises(IndexOutOfRange, match=rf"^curve index True out of range 1\.\.{n}$"):
        q_arrow(om, True, 2)


def test_q_arrow_kills_row(omega3):
    # e_i^T omega Q_{i<-j} == 0
    q = q_arrow(omega3, 2, 1)
    assert sympy.Matrix([omega3.entries[1]]) * sympy.Matrix(q) == sympy.zeros(1, 3)


def test_p_gamma_example(omega3):
    assert p_gamma(omega3, (1, 2, 3)) == ((0, 0, -1), (0, 0, 1), (0, 0, -1))


def test_p_gamma_rejects_paths_it_cannot_follow(omega3):
    with pytest.raises(NotSupported, match="at least two vertices"):
        p_gamma(omega3, (1,))
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    with pytest.raises(NotSupported, match="step 3 -> 1 is not an edge"):
        p_gamma(om, (1, 2, 3))


def test_f_gamma_out_of_a_curve_that_meets_nothing():
    # curve 3 meets nothing, so the path has no edge to leave it by
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    with pytest.raises(NotSupported, match="step 3 -> 1 is not an edge"):
        f_gamma(om, (3, 1))


def test_f_gamma_triangle(omega3):
    lm = f_gamma(omega3, (1, 2, 3))
    assert lm.matrix == ((0, -1), (0, -1))
    assert lm.charpoly == Poly([0, 1, 1])  # x^2 + x


def test_limit_charpoly_matches_sympy_on_every_catalog_tour(monkeypatch):
    primes = count_calls(monkeypatch, penner.modp, "charpoly_mod")
    for cid in catalog_ids():
        omega = catalog_get(cid).omega
        for root in sorted({1, omega.n // 2 + 1, omega.n}):
            lm = f_gamma(omega, spanning_tree_tour(graph_of(omega), root=root))
            assert lm.charpoly == char_poly_exact(lm.matrix), (cid, root)
    # the Hadamard bound of every tour's limit map fits a 64-bit prime
    assert {prime.bit_length() for _h, prime in primes} == {65}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_charpoly_matches_sympy_on_random_paths(seed):
    # a tour, whose limit map collapses, and a closed walk, which in general
    # is not contractible, over entries up to 50
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 8), max_entry=50)
    for gamma in (tour_path(om, rng), random_closed_walk(om, rng, rng.randint(2, 8))):
        if gamma is not None:
            lm = f_gamma(om, gamma)
            assert lm.charpoly == char_poly_exact(lm.matrix), gamma


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_scale_invariance(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 7))
    k = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    om_k = scale(om, k)
    gamma = random_closed_walk(om, rng, rng.randint(2, 6))
    if gamma is None or len(gamma) < 2:
        return
    assert p_gamma(om, gamma) == p_gamma(om_k, gamma)
    assert f_gamma(om, gamma).charpoly == f_gamma(om_k, gamma).charpoly


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_limit_map_invariants(seed):
    # zero is a simple root of the charpoly; complexity <= rank - 1
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 7))
    gamma = random_closed_walk(om, rng, rng.randint(2, 8))
    if gamma is None or len(gamma) < 2:
        return
    chi = f_gamma(om, gamma).charpoly
    quotient, rem = chi.divide_linear(0)
    assert rem == 0 and quotient(0) != 0
    assert complexity(chi) <= rank_exact(om) - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_projection_identity(seed):
    # Q_{i3<-i2} Q_{i2<-i} Q_{i<-i2} Q_{i2<-i1} == Q_{i3<-i2} Q_{i2<-i1}
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 7))
    from penner import graph_of

    i2 = rng.randint(1, om.n)
    nbs = graph_of(om).adjacency()[i2]
    if not nbs:
        return
    i1, i, i3 = (rng.choice(nbs) for _ in range(3))
    a = q_arrow(om, i3, i2)
    b = q_arrow(om, i2, i)
    c = q_arrow(om, i, i2)
    d = q_arrow(om, i2, i1)
    assert mat_mul(mat_mul(a, b), mat_mul(c, d)) == mat_mul(a, d)


# ---------------------------------------------------------------------------
# homotopy and rotation invariance
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_homotopy_invariance(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 7))
    from penner import graph_of

    g = graph_of(om)
    gamma = random_closed_walk(om, rng, rng.randint(2, 6))
    if gamma is None or len(gamma) < 2:
        return
    pos = rng.randint(1, len(gamma) - 1)  # 1-based; keep the last edge intact
    choices = [u for u in g.adjacency()[gamma[pos - 1]] if u != gamma[pos - 1]]
    if not choices:
        return
    vertex = rng.choice(choices)
    assert homotopy_invariance_check(om, gamma, pos, vertex)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_rotation_invariance(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 7))
    gamma = random_closed_walk(om, rng, rng.randint(2, 6))
    if gamma is None or len(gamma) < 2:
        return
    r = rng.randrange(len(gamma))
    rotated = gamma[r:] + gamma[:r]
    assert f_gamma(om, gamma).charpoly == f_gamma(om, rotated).charpoly


def test_insert_spur():
    assert insert_spur((1, 2, 3), 2, 4) == (1, 2, 4, 2, 3)


# ---------------------------------------------------------------------------
# contractible collapse
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_contractible_collapse(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 8))
    gamma = tour_path(om, rng, spurs=rng.randint(0, 2))
    chi = f_gamma(om, gamma).charpoly
    assert chi == collapsed_charpoly(om.n)


# ---------------------------------------------------------------------------
# quantitative eigenvector estimate
# ---------------------------------------------------------------------------

def test_eigenvector_estimate_triangle(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    res = eigenvector_asymptotics(omega3, word, k=10, digits=30)
    assert res.lhs <= res.rhs


def test_eigenvector_estimate_decays(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    lhs = [eigenvector_asymptotics(omega3, word, k=k, digits=30).lhs
           for k in (4, 16, 64)]
    assert lhs[0] > lhs[1] > lhs[2]


def test_eigenvector_estimate_preconditions(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    with pytest.raises(PreconditionViolated):
        eigenvector_asymptotics(omega3, word, k=Fraction(1, 2))
    with pytest.raises(NotGeneral, match="^the path must visit every curve$"):
        eigenvector_asymptotics(omega3, TwistWord((1, 2), (1, 1)), k=1)
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    with pytest.raises(NotSupported):
        eigenvector_asymptotics(om, word, k=1)


# ---------------------------------------------------------------------------
# ray experiment
# ---------------------------------------------------------------------------

def test_ray_experiment_supported(omega3):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    tab = ray_convergence_experiment(omega3, word, (4, 8, 16, 32), digits=50)
    assert tab.supported and tab.limit == Poly([0, 1, 1])
    dists = [row.distance for row in tab.rows]
    assert all(a > b for a, b in zip(dists, dists[1:]))


def ray_rows(table):
    """The eigenvalue and distance of each row, bit for bit."""
    return [(row.lam._mpf_, row.distance._mpf_) for row in table.rows]


def located_ray_rows(omega, word, scales):
    """:func:`ray_rows` of the ray with each eigenvalue located among all
    roots of its characteristic polynomial, not read from its product."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(penner.boundary, "pf_eigenvalue",
                      lambda chi, digits, _product: pf_eigenvalue(chi, digits))
        return ray_rows(ray_convergence_experiment(omega, word, scales, digits=50))


def test_ray_eigenvalues_from_the_product_are_bit_identical(omega3):
    rays = [(omega3, TwistWord((1, 2, 3), powers), [k0 << j for j in range(4)])
            for powers in itertools.product((1, 3), repeat=3) for k0 in (2, 5, 8)]
    for cid in catalog_ids():
        omega = catalog_get(cid).omega
        gamma = spanning_tree_tour(graph_of(omega))  # the root-1 tour
        rays.append((omega, TwistWord(gamma, (1,) * len(gamma)), (1, 27)))
    for omega, word, scales in rays:
        ours = ray_rows(ray_convergence_experiment(omega, word, scales, digits=50))
        assert ours == located_ray_rows(omega, word, scales), (omega, word)


def test_ray_eigenvalue_is_the_recipes_where_the_roots_crowd():
    # lambda and 1 / lambda differ by about 2 epsilon, far below the
    # dominance test's tolerance, so located among all roots they do not
    # part; the product's exact bounds hold lambda alone
    epsilon = Fraction(1, 10**40)
    omega = IntersectionMatrix(((0, epsilon), (epsilon, 0)))
    word = TwistWord((1, 2), (1, 1))
    (row,) = ray_convergence_experiment(omega, word, (1,), digits=50).rows
    assert row.lam._mpf_ == run_recipe(omega, word, digits=50).lam._mpf_
    with pytest.raises(NotPerronFrobenius, match="not a simple real eigenvalue"):
        located_ray_rows(omega, word, (1,))


def test_ray_experiment_needs_a_scale(omega3, divergent4):
    word = TwistWord((1, 2, 3), (1, 1, 1))
    with pytest.raises(ValidationError, match="at least one scale"):
        ray_convergence_experiment(omega3, word, (), digits=30)
    with pytest.raises(ValidationError, match="at least one scale"):
        ray_convergence_experiment(divergent4, TwistWord((1, 2, 3, 4), (1, 1, 1, 1)),
                                   (), digits=30)


def test_ray_experiment_divergent(divergent4):
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    tab = ray_convergence_experiment(divergent4, word, (16, 32, 64, 128), digits=50)
    assert not tab.supported
    for got, want in zip(tab.divergence.exponents, (3, 1, -1, -3)):
        assert abs(got - want) < 0.15


def test_ray_experiment_divergent_rational_scales(divergent4):
    # a Fraction scale goes into the log-log fit as it goes into scale(),
    # and an integral one fits exactly as the int does
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    ks = (16, 32, 64, 128)
    ints = ray_convergence_experiment(divergent4, word, ks, digits=50)
    fracs = ray_convergence_experiment(divergent4, word, [Fraction(k) for k in ks], digits=50)
    assert fracs.divergence == ints.divergence
    half = ray_convergence_experiment(divergent4, word, [Fraction(1, 2), 4, 8], digits=30)
    assert not half.supported and len(half.divergence.exponents) == 4


def test_ray_experiment_divergent_needs_two_different_scales(divergent4):
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    for scales in ((4,), (4, 4), (4, Fraction(8, 2))):
        with pytest.raises(ValidationError, match="two scales"):
            ray_convergence_experiment(divergent4, word, scales, digits=30)


def test_ray_experiment_divergent_root_finding_failure(divergent4, monkeypatch):
    def fail(*_args, **_kwargs):
        raise mp.libmp.libhyper.NoConvergence("Didn't converge in maxsteps=300")

    monkeypatch.setattr(penner.spectral, "_durand_kerner", fail)
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    with pytest.raises(PreconditionViolated, match="at k = 4: root finding failed"):
        ray_convergence_experiment(divergent4, word, (4, 8), digits=50)


def test_ray_experiment_divergent_disjoint_pairs():
    # two disjoint pairs of curves: the reduced polynomial is the square of
    # a palindromic quadratic, located on its trace polynomial
    om = IntersectionMatrix(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    tab = ray_convergence_experiment(om, word, (4, 8, 16, 32), digits=50)
    for got, want in zip(tab.divergence.exponents, (2, 2, -2, -2)):
        assert abs(got - want) < 0.1


def test_ray_experiment_divergent_rank_deficient(divergent4):
    # curve 4 doubled twice: n = 6, rank 4, so two eigenvalues are exactly 1
    om = puncture_augment(puncture_augment(divergent4, 4, "D"), 4, "D")
    assert (om.n, rank_exact(om)) == (6, 4)
    word = TwistWord((1, 2, 3, 4, 3, 5, 3, 6), (1,) * 8)
    tab = ray_convergence_experiment(om, word, (16, 32, 64, 128), digits=50)
    fit = tab.divergence
    assert [e for e in fit.exponents if e == 0] == [0.0, 0.0]
    assert [c for e, c in zip(fit.exponents, fit.constants) if e == 0] == [1.0, 1.0]
    assert all(row.magnitudes.count(1) == 2 for row in tab.rows)
