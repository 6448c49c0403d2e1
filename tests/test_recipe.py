"""Tests for the degree-realization recipe on the rank-24 catalog matrix: the
leading eigenvalue is computed once, at ``k*``, and is exactly bracketed."""

from fractions import Fraction

import pytest

from penner import TwistWord, graph_of, pf_eigenvalue, run_recipe
from penner.catalog import catalog_get
from penner.graphs import spanning_tree_tour

from conftest import count_pf_eigenvalue


@pytest.fixture(scope="module")
def s43_recipe():
    """``(result, pf_eigenvalue calls)`` of the recipe on the S43-max tour."""
    omega = catalog_get("S43-max").omega
    gamma = spanning_tree_tour(graph_of(omega))
    word = TwistWord(gamma, (1,) * len(gamma))
    with pytest.MonkeyPatch.context() as patch:
        calls = count_pf_eigenvalue(patch)
        result = run_recipe(omega, word, k_max=256, window=3, digits=50)
    return result, len(calls)


def test_recipe_computes_lambda_once(s43_recipe):
    result, calls = s43_recipe
    assert result.degree == result.rank == 24
    assert calls == 1


def test_recipe_lambda_is_the_leading_eigenvalue(s43_recipe):
    result, _calls = s43_recipe
    assert result.lam == pf_eigenvalue(result.charpoly, 50).value


def test_recipe_minpoly_changes_sign_across_lambda(s43_recipe):
    result, _calls = s43_recipe
    man, exp = result.lam.man_exp
    lam = Fraction(man) * Fraction(2) ** exp
    eps = lam * Fraction(1, 10**45)
    assert result.minpoly(lam - eps) * result.minpoly(lam + eps) < 0
