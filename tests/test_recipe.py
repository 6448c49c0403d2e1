"""Tests for the degree-realization recipe on the rank-24 catalog matrix: the
leading eigenvalue is computed once, at ``k*``, and is exactly bracketed;
what scaling cannot change is computed once per recipe."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import penner
import penner.cli
import penner.recipe
import penner.spectral
from penner import IntersectionMatrix, TwistWord, graph_of, pf_eigenvalue, run_recipe
from penner.catalog import catalog_get
from penner.errors import NotContractible, NotGeneral, NotSupported, ValidationError
from penner.graphs import spanning_tree_tour

from conftest import count_calls


@pytest.fixture(scope="module")
def s43_recipe():
    """``(result, calls)`` of the recipe on the S43-max tour, with ``calls``
    the number of calls of ``pf_eigenvalue``, ``_durand_kerner`` (the root
    locator's iteration), ``rank_exact`` and ``pf_certify``."""
    omega = catalog_get("S43-max").omega
    gamma = spanning_tree_tour(graph_of(omega))
    word = TwistWord(gamma, (1,) * len(gamma))
    names = ("pf_eigenvalue", "_durand_kerner", "rank_exact", "pf_certify")
    with pytest.MonkeyPatch.context() as patch:
        calls = {name: count_calls(patch, penner.spectral, name) for name in names}
        result = run_recipe(omega, word, k_max=256, window=3, digits=50)
    return result, {name: len(c) for name, c in calls.items()}


def test_recipe_computes_lambda_once(s43_recipe):
    result, calls = s43_recipe
    assert result.degree == result.rank == 24
    # once, from the twist product; no roots are located
    assert calls["pf_eigenvalue"] == 1 and calls["_durand_kerner"] == 0


def test_recipe_computes_rank_and_certificate_once(s43_recipe):
    result, calls = s43_recipe
    assert result.k_star + result.window - 1 == 3  # three scales scanned
    assert calls["rank_exact"] == calls["pf_certify"] == 1


def test_recipe_lives_in_the_library():
    assert penner.cli.run_recipe is penner.recipe.run_recipe
    src = os.path.dirname(os.path.dirname(os.path.abspath(penner.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, penner; print('penner.cli' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "True", done.stderr


def test_recipe_lambda_is_the_leading_eigenvalue(s43_recipe):
    result, _calls = s43_recipe
    assert result.lam == pf_eigenvalue(result.charpoly, 50).value


def test_recipe_minpoly_changes_sign_across_lambda(s43_recipe):
    result, _calls = s43_recipe
    man, exp = result.lam.man_exp
    lam = Fraction(man) * Fraction(2) ** exp
    eps = lam * Fraction(1, 10**45)
    assert result.minpoly(lam - eps) * result.minpoly(lam + eps) < 0


#: ``(entries, gamma, error, message)``: a word ``run_recipe`` rejects before
#: scanning any scale.  On the path 1 - 2 - 3 the word 1, 3 is not a closed
#: path; on the triangle 1, 2 misses curve 3 and 1, 2, 3 is not contractible.
REJECTED_WORDS = [
    ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], (1, 3), NotSupported,
     "the word must trace a closed path in the graph"),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2), NotGeneral,
     "the path must visit every curve"),
    ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (1, 2, 3), NotContractible,
     "the path must be contractible in the graph"),
]


def test_recipe_rejects_window_above_k_max_before_scanning(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_charpoly", refuse)
    omega = IntersectionMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    word = TwistWord((1, 2, 1, 3), (1, 1, 1, 1))
    with pytest.raises(ValidationError, match="a window of 3 scales does not fit in k <= 2"):
        run_recipe(omega, word, k_max=2, window=3)
    monkeypatch.undo()  # a window of k_max scales fits
    assert run_recipe(omega, word, k_max=3, window=3).k_star == 1


@pytest.mark.parametrize("entries, gamma, error, message", REJECTED_WORDS)
def test_recipe_rejects_word_before_scanning(entries, gamma, error, message, monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a scale was scanned")

    monkeypatch.setattr(penner.recipe, "twist_charpoly", refuse)
    with pytest.raises(error, match=message):
        run_recipe(IntersectionMatrix(tuple(map(tuple, entries))),
                   TwistWord(gamma, (1,) * len(gamma)))

