"""The degree-realization recipe: scale the intersection matrix until the
stretch factor of a twist product has algebraic degree equal to the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import mpmath as mp

from .core import IntersectionMatrix, TwistWord, scale, twist_product
from .errors import (
    KBudgetExhausted,
    NotContractible,
    NotPerronFrobenius,
    NotSupported,
    ValidationError,
)
from .factor import degree_of_pf_root
from .graphs import check_covers, graph_of, is_contractible, word_supported
from .spectral import (
    DEFAULT_DIGITS,
    SINGLE_CURVE,
    Poly,
    SpectralReport,
    pf_certify,
    rank_exact,
    twist_charpoly,
)


@dataclass(frozen=True)
class RecipeResult:
    """Outcome of the degree-realization scan."""

    k_star: int
    rank: int
    degree: int
    lam: mp.mpf
    minpoly: Poly
    charpoly: Poly
    window: int


def run_recipe(
    omega: IntersectionMatrix,
    word: TwistWord,
    k_max: int = 256,
    window: int = 3,
    digits: int = DEFAULT_DIGITS,
) -> RecipeResult:
    """Find the smallest ``k*`` such that for ``window`` consecutive scales
    ``k = k*, k*+1, ...`` the twist product over ``k * omega`` has a stretch
    factor of algebraic degree exactly ``rank(omega)``.

    The word must trace a *contractible* closed path in the intersection
    graph visiting every vertex (then the limit map degenerates completely
    and the reduced characteristic polynomial is eventually irreducible).

    The rank of ``omega`` and the Perron-Frobenius certificate
    (:func:`pf_certify`) do not change under ``omega -> k * omega`` for
    ``k > 0``, so both are computed once, before the scan; each scale then
    computes only its twist product and characteristic polynomial.

    The leading eigenvalue is computed on demand: a scale whose reduced
    polynomial is irreducible gets its degree from the exact factorization
    alone, so the eigenvalue is found only at ``k*`` and at scales whose
    reduced polynomial factors.  A scale whose eigenvalue is not needed
    raises nothing, even where the root finder would fail.  Each scale
    builds its twist product once, for its report, whose
    :func:`~penner.spectral.pf_eigenvalue` reads the eigenvalue from the
    product's exact bounds; its characteristic polynomial comes from the
    word's letters without it.

    Raises :class:`ValidationError` for a ``k_max`` or ``window`` below 1
    or a ``window`` above ``k_max``,
    what :func:`~penner.graphs.word_supported` raises for a word that is
    not a path, :class:`NotSupported` when the word does not trace a closed
    path in the intersection graph, :class:`NotGeneral` when it misses a curve,
    :class:`NotContractible`, :class:`NotPerronFrobenius` when the product
    is not certified Perron-Frobenius (a single curve), or
    :class:`KBudgetExhausted`.  Reading the eigenvalue may raise what
    :func:`~penner.spectral.pf_eigenvalue` raises where the bounds stall,
    a root-finder failure as :class:`~penner.errors.PreconditionViolated`.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be at least 1, got {k_max}")
    if window < 1:
        raise ValidationError(f"window must be at least 1, got {window}")
    if window > k_max:
        raise ValidationError(
            f"a window of {window} scales does not fit in k <= {k_max}")
    g = graph_of(omega)
    if not word_supported(word, g):
        raise NotSupported("the word must trace a closed path in the graph")
    check_covers(word.gamma, omega.n)
    if not is_contractible(word.gamma):
        raise NotContractible("the path must be contractible in the graph")
    if not pf_certify(omega, word):
        raise NotPerronFrobenius(SINGLE_CURVE)
    rank = rank_exact(omega)
    streak: List[Tuple[int, SpectralReport, Poly]] = []  # (k, report, minpoly)
    for k in range(1, k_max + 1):
        scaled = scale(omega, k)
        product = twist_product(scaled, word)
        report = SpectralReport.from_charpoly(twist_charpoly(scaled, word),
                                              rank, digits, product)
        degree, minpoly, _fz = degree_of_pf_root(report)
        if degree == rank:
            streak.append((k, report, minpoly))
        else:
            streak = []
        if len(streak) == window:
            k_star, rep, mpoly = streak[0]
            return RecipeResult(
                k_star=k_star,
                rank=rank,
                degree=rank,
                lam=rep.pf_value,
                minpoly=mpoly,
                charpoly=rep.charpoly,
                window=window,
            )
    raise KBudgetExhausted(
        f"no stable window of {window} scales with degree == rank within k <= {k_max}"
    )
