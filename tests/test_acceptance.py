"""Acceptance suite: twelve end-to-end criteria, one per test, each printing
a single PASS/FAIL line.

Numeric thresholds marked "measured" were frozen from independent oracle
runs (high-precision eigenvalue computations, exact rational bisection, and
log-log regression) before being encoded here.
"""

import math
import random

import mpmath as mp
import pytest
import sympy

from penner import (
    IntersectionMatrix,
    Poly,
    TwistWord,
    char_poly_exact,
    complexity,
    degree_set,
    eigenvector_asymptotics,
    f_gamma,
    factor_monic,
    graph_of,
    is_reciprocal,
    pf_eigenvalue,
    q_arrow,
    rank_exact,
    ray_convergence_experiment,
    run_recipe,
    scale,
    spectral_report,
    structure_split,
    twist_product,
)
from penner.catalog import SurfaceSpec, catalog_get, mr_matrix
from penner.core import mat_mul
from penner.errors import NoPseudoAnosov
from penner.graphs import spanning_tree_tour

from conftest import (
    collapsed_charpoly,
    general_word,
    height,
    mr_inverse,
    random_closed_walk,
    random_omega,
    sympy_is_irreducible,
    sympy_mat_vec,
    sympy_preserves_form,
    tour_path,
)

OMEGA3 = IntersectionMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
WORD3 = TwistWord((1, 2, 3), (1, 1, 1))
DIVERGENT4 = IntersectionMatrix(
    ((0, 0, 1, 2), (0, 0, 1, 1), (1, 1, 0, 1), (2, 1, 1, 0))
)


def report(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_maximal_degree_realization():
    entry = catalog_get("S43-max")
    omega = entry.omega
    assert rank_exact(omega) == 24
    gamma = spanning_tree_tour(graph_of(omega))
    word = TwistWord(gamma, (1,) * len(gamma))
    result = run_recipe(omega, word, k_max=256, window=3, digits=50)
    ok = result.rank == 24 and result.degree == 24
    report(1, ok,
           f"rank 24; recipe degree {result.degree} at k* = {result.k_star} "
           f"(window {result.window})")


def test_criterion_02_catalog_rank_table():
    expected = {
        "S43-max": 24, "N5-rank5": 5, "N31-rank4": 4, "N40-rank5": 5,
        "N41-rank8": 8, "N32-rank7": 7, "N13-rank3": 3, "N14-rank4": 4,
        "N22-rank3": 3, "N22-rank4": 4,
    }
    ok = all(rank_exact(catalog_get(i).omega) == r for i, r in expected.items())
    inverses = all(
        sympy.Matrix(mr_matrix(r).entries).inv() == mr_inverse(r)
        for r in range(3, 13)
    )
    ok = ok and inverses
    report(2, ok, "all stored ranks exact; M_r inverse matches its closed form, r = 3..12")


def test_criterion_03_deflated_charpoly_convergence():
    # Threshold at k = 32 frozen from the oracle run of this experiment
    # (measured distance 0.1716; the subdominant eigenvalue approaches -1
    # at rate ~ 5.5/k, independently confirmed by direct eigenvalue
    # computation).
    table = ray_convergence_experiment(OMEGA3, WORD3, (4, 8, 16, 32), digits=50)
    dists = [row.distance for row in table.rows]
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    ok = table.limit == Poly([0, 1, 1]) and decreasing and dists[-1] < 0.2
    report(3, ok,
           "distances to x^2 + x at k = 4,8,16,32: "
           + ", ".join(mp.nstr(d, 4) for d in dists)
           + f" (strictly decreasing, {mp.nstr(dists[-1], 4)} < 0.2 at k = 32)")


def test_criterion_04_divergent_regime_exponents():
    word = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    scales = (16, 32, 64, 128)
    tab = ray_convergence_experiment(DIVERGENT4, word, scales, digits=50)
    assert not tab.supported
    targets_exp = (3, 1, -1, -3)
    exp_ok = all(abs(g - t) < 0.15
                 for g, t in zip(tab.divergence.exponents, targets_exp))
    # Constants with the exponents pinned at their theoretical values; the
    # trailing constant is 1/3, not 3: the product is a determinant-1 matrix,
    # which forces the product of the four magnitude constants to be 1.
    targets_const = (3.0, 1 / 3, 3.0, 1 / 3)
    consts = []
    for slot, e in enumerate(targets_exp):
        cs = [float(row.magnitudes[slot]) / float(row.scale) ** e
              for row in tab.rows]
        consts.append(math.exp(sum(math.log(c) for c in cs) / len(cs)))
    const_ok = all(max(c / t, t / c) < 1.5
                   for c, t in zip(consts, targets_const))
    ok = exp_ok and const_ok
    report(4, ok,
           "exponents " + str(tuple(round(e, 3) for e in tab.divergence.exponents))
           + " within 0.15 of (3, 1, -1, -3); constants "
           + str(tuple(round(c, 3) for c in consts))
           + " within factor 1.5 of (3, 1/3, 3, 1/3)")


def test_criterion_05_contractible_collapse():
    rng = random.Random(5)
    checked = 0
    ok = True
    matrices = [random_omega(rng, rng.randint(3, 8)) for _ in range(20)]
    while checked < 200:
        om = matrices[checked % 20]
        gamma = tour_path(om, rng, spurs=rng.randint(0, 3))
        chi = f_gamma(om, gamma).charpoly
        ok = ok and chi == collapsed_charpoly(om.n)
        checked += 1
    report(5, ok,
           f"chi(f_gamma) == x(x-1)^(n-2) exactly on {checked} random "
           "supported contractible paths over 20 matrices")


def test_criterion_06_projection_limit_invariants():
    rng = random.Random(6)
    zero_ok = compl_ok = ident_ok = 0
    trials = 0
    while trials < 500:
        om = random_omega(rng, rng.randint(3, 7))
        adj = graph_of(om).adjacency()
        gamma = random_closed_walk(om, rng, rng.randint(2, 8))
        if gamma is None:
            continue
        chi = f_gamma(om, gamma).charpoly
        quotient, remainder = chi.divide_linear(0)
        if remainder == 0 and quotient(0) != 0:
            zero_ok += 1
        if complexity(chi) <= rank_exact(om) - 1:
            compl_ok += 1
        i2 = rng.randint(1, om.n)
        nbs = adj[i2]
        i1, i, i3 = (rng.choice(nbs) for _ in range(3))
        a, b = q_arrow(om, i3, i2), q_arrow(om, i2, i)
        c, d = q_arrow(om, i, i2), q_arrow(om, i2, i1)
        if mat_mul(mat_mul(a, b), mat_mul(c, d)) == mat_mul(a, d):
            ident_ok += 1
        trials += 1
    ok = zero_ok == compl_ok == ident_ok == 500
    report(6, ok,
           f"zero simple root {zero_ok}/500; complexity <= rank-1 "
           f"{compl_ok}/500; projection identity {ident_ok}/500")


def test_criterion_07_homotopy_and_rotation_invariance():
    from penner import homotopy_invariance_check

    rng = random.Random(7)
    spur_ok = rot_ok = 0
    trials = 0
    while trials < 200:
        om = random_omega(rng, rng.randint(3, 7))
        adj = graph_of(om).adjacency()
        gamma = random_closed_walk(om, rng, rng.randint(2, 6))
        if gamma is None:
            continue
        pos = rng.randint(1, len(gamma) - 1) if len(gamma) > 1 else 1
        choices = adj[gamma[pos - 1]]
        if not choices:
            continue
        if homotopy_invariance_check(om, gamma, pos, rng.choice(choices)):
            spur_ok += 1
        r = rng.randrange(len(gamma))
        rotated = gamma[r:] + gamma[:r]
        if f_gamma(om, gamma).charpoly == f_gamma(om, rotated).charpoly:
            rot_ok += 1
        trials += 1
    ok = spur_ok == rot_ok == 200
    report(7, ok,
           f"spur insertion rel last edge {spur_ok}/200 identical matrices; "
           f"cyclic rotation {rot_ok}/200 identical char polys")


def test_criterion_08_algebraic_structure_suite():
    from test_spectral import bipartite_omega

    rng = random.Random(8)
    general_ok = 0
    for _ in range(100):
        om = random_omega(rng, rng.randint(2, 8))
        word = general_word(om, rng)
        m = twist_product(om, word)
        chi = char_poly_exact(m)
        r = rank_exact(om)
        exponent, reduced = structure_split(chi, r)
        if (chi.coeffs[0] in (1, -1)
                and sympy.Matrix(m).det() == 1
                and reduced(1) != 0
                and complexity(reduced) == r):
            general_ok += 1
    bip_ok = 0
    for _ in range(100):
        om = bipartite_omega(rng, rng.randint(2, 3), rng.randint(2, 3))
        word = general_word(om, rng)
        m = twist_product(om, word)
        _, reduced = structure_split(char_poly_exact(m), rank_exact(om))
        if sympy_preserves_form(om, m) and is_reciprocal(reduced):
            bip_ok += 1
    ok = general_ok == 100 and bip_ok == 100
    report(8, ok,
           f"det/constant-coefficient/split/complexity {general_ok}/100; "
           f"bipartite symplectic + reciprocal {bip_ok}/100")


def test_criterion_09_height_identity():
    from fractions import Fraction

    from penner import generator

    rng = random.Random(9)
    ok_count = 0
    for _ in range(1000):
        om = random_omega(rng, rng.randint(2, 6), connected=False)
        i = rng.randint(1, om.n)
        v = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(om.n))
        qv = sympy_mat_vec(generator(om, i), v)
        if height(om, qv) - height(om, v) == sum(
                (a - b) ** 2 for a, b in zip(qv, v)):
            ok_count += 1
    report(9, ok_count == 1000,
           f"h(Q_i v) - h(v) == ||Q_i v - v||^2 exactly, {ok_count}/1000")


def test_criterion_10_eigenvector_estimate():
    rng = random.Random(10)
    bound_ok = 0
    for _ in range(100):
        om = random_omega(rng, rng.randint(3, 5), max_entry=3)
        word = general_word(om, rng, max_power=2)
        res = eigenvector_asymptotics(om, word, k=1, digits=30)
        if res.lhs <= res.rhs:
            bound_ok += 1
    lhs4 = eigenvector_asymptotics(OMEGA3, WORD3, k=4, digits=30).lhs
    lhs64 = eigenvector_asymptotics(OMEGA3, WORD3, k=64, digits=30).lhs
    ratio = float(lhs64 / lhs4)
    ok = bound_ok == 100 and ratio < 0.10
    report(10, ok,
           f"lhs <= rhs on {bound_ok}/100 random instances; triangle "
           f"lhs(64)/lhs(4) = {ratio:.3f} < 0.10")


def test_criterion_11_fixture_polynomials():
    sextic = Poly([1, 1, -1, 0, -1, -3, 1])
    quintic = Poly([-1, -1, 1, -1, -3, 1])
    irr = sympy_is_irreducible(sextic) and sympy_is_irreducible(quintic)
    cert = (factor_monic(sextic).product() == sextic
            and factor_monic(quintic).product() == quintic)
    root6 = pf_eigenvalue(sextic, digits=50).value
    root5 = pf_eigenvalue(quintic, digits=50).value
    roots_ok = (abs(root6 - mp.mpf("3.318022")) < 1e-5
                and abs(root5 - mp.mpf("3.251034")) < 1e-5)
    ok = irr and cert and roots_ok
    report(11, ok,
           f"both fixtures certified irreducible; largest roots "
           f"{mp.nstr(root6, 8)} and {mp.nstr(root5, 8)} match to 1e-5")


def test_criterion_12_degree_set_tables():
    s2 = degree_set(SurfaceSpec(True, 2, 0)).sets == (frozenset({2, 3, 4, 6}),)
    n31 = degree_set(SurfaceSpec(False, 3, 1)).sets == (frozenset({3, 4, 5}),)
    try:
        degree_set(SurfaceSpec(False, 3, 0))
        n3_err = False
    except NoPseudoAnosov:
        n3_err = True
    amb = degree_set(SurfaceSpec(True, 3, 1))
    amb_ok = amb.ambiguous and len(amb.sets) == 2
    ok = s2 and n31 and n3_err and amb_ok
    report(12, ok,
           "D(S_2) = {2,3,4,6}; D(N_3,1) = {3,4,5}; N_3 raises "
           "NoPseudoAnosov; odd-puncture half-odd case returns flagged pair")
