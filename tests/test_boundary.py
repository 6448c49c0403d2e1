"""Tests for the projection matrices, limit maps along closed paths,
their invariances, and the quantitative eigenvector estimate."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from penner import (
    BoundaryPoint,
    IntersectionMatrix,
    Poly,
    TwistWord,
    complexity,
    eigenvector_asymptotics,
    f_gamma,
    homotopy_invariance_check,
    p_gamma,
    q_arrow,
    rank_exact,
    ray_convergence_experiment,
    scale,
)
from penner.boundary import insert_spur
from penner.core import mat_eq, mat_mul
from penner.errors import NotAnEdge, NotGeneral, NotSupported, PreconditionViolated

from conftest import collapsed_charpoly, random_closed_walk, random_omega, tour_path


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


def test_q_arrow_kills_row(omega3):
    # e_i^T omega Q_{i<-j} == 0
    from penner.core import vec_mat

    q = q_arrow(omega3, 2, 1)
    assert vec_mat(omega3.row(2), q) == (0, 0, 0)


def test_p_gamma_example(omega3):
    assert p_gamma(omega3, (1, 2, 3)) == ((0, 0, -1), (0, 0, 1), (0, 0, -1))


def test_f_gamma_triangle(omega3):
    lm = f_gamma(omega3, (1, 2, 3))
    assert lm.matrix == ((0, -1), (0, -1))
    assert lm.charpoly == Poly([0, 1, 1])  # x^2 + x


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

    g = graph_of(om)
    i2 = rng.randint(1, om.n)
    nbs = g.neighbors(i2)
    if not nbs:
        return
    i1, i, i3 = (rng.choice(nbs) for _ in range(3))
    a = q_arrow(om, i3, i2)
    b = q_arrow(om, i2, i)
    c = q_arrow(om, i, i2)
    d = q_arrow(om, i2, i1)
    assert mat_eq(mat_mul(mat_mul(a, b), mat_mul(c, d)), mat_mul(a, d))


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
    choices = [u for u in g.neighbors(gamma[pos - 1]) if u != gamma[pos - 1]]
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
# boundary points
# ---------------------------------------------------------------------------

def test_boundary_point_rays(omega3):
    assert BoundaryPoint.of(omega3).same_ray(BoundaryPoint.of(scale(omega3, 7)))
    other = IntersectionMatrix(((0, 2, 1), (2, 0, 1), (1, 1, 0)))
    assert not BoundaryPoint.of(omega3).same_ray(BoundaryPoint.of(other))


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
    with pytest.raises(NotGeneral):
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


def test_ray_experiment_divergent(divergent4):
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    tab = ray_convergence_experiment(divergent4, word, (16, 32, 64, 128), digits=50)
    assert not tab.supported
    for got, want in zip(tab.divergence.exponents, (3, 1, -1, -3)):
        assert abs(got - want) < 0.15
