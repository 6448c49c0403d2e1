"""The degree-realization recipe: scale the intersection matrix until the
stretch factor of a twist product has algebraic degree equal to the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import mpmath as mp

from .core import (
    IntersectionMatrix,
    TwistWord,
    generator,
    identity_matrix,
    mat_eq,
    mat_mul,
    scale,
    twist_product,
)
from .errors import (
    KBudgetExhausted,
    NotContractible,
    NotGeneralPath,
    NotPerronFrobenius,
    ValidationError,
)
from .factor import degree_of_pf_root
from .graphs import covers_vertices, graph_of, is_contractible, word_supported
from .spectral import (
    SINGLE_CURVE,
    Poly,
    SpectralReport,
    char_poly_exact,
    default_digits,
    pf_certify,
    rank_exact,
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
    word: Tuple[Tuple[int, int], ...]  # (curve, exponent), leftmost factor first


def run_recipe(
    omega: IntersectionMatrix,
    word: TwistWord,
    k_max: int = 256,
    window: int = 3,
    digits: Optional[int] = None,
    crosscheck: bool = False,
) -> RecipeResult:
    """Find the smallest ``k*`` such that for ``window`` consecutive scales
    ``k = k*, k*+1, ...`` the twist product over ``k * omega`` has a stretch
    factor of algebraic degree exactly ``rank(omega)``.

    The word must trace a *contractible* closed path in the intersection
    graph visiting every vertex (then the limit map degenerates completely
    and the reduced characteristic polynomial is eventually irreducible).
    With ``crosscheck=True``, for ``k <= 3`` the fast product (one row
    update per letter) is compared against the naive product of elementary
    twist matrices.

    The rank of ``omega`` and the Perron-Frobenius certificate
    (:func:`pf_certify`) do not change under ``omega -> k * omega`` for
    ``k > 0``, so both are computed once, before the scan; each scale then
    computes only its twist product and characteristic polynomial.

    The leading eigenvalue is computed on demand: a scale whose reduced
    polynomial is irreducible gets its degree from the exact factorization
    alone, so the eigenvalue is found only at ``k*`` and at scales whose
    reduced polynomial factors.  A scale whose eigenvalue is not needed
    does not raise :class:`NotPerronFrobenius`, even where the root finder
    would fail.

    Raises :class:`ValidationError` for a ``window`` below 1,
    :class:`NotContractible`, :class:`NotGeneralPath`,
    :class:`NotPerronFrobenius` when the product is not certified
    Perron-Frobenius (a single curve), or :class:`KBudgetExhausted`.
    """
    if window < 1:
        raise ValidationError(f"window must be at least 1, got {window}")
    digits = default_digits() if digits is None else digits
    g = graph_of(omega)
    if not word_supported(word, g):
        raise NotGeneralPath("the word must trace a closed path in the graph")
    if not covers_vertices(word.gamma, omega.n):
        raise NotGeneralPath("the path must visit every curve")
    if not is_contractible(word.gamma):
        raise NotContractible("the path must be contractible in the graph")
    if not pf_certify(omega, word):
        raise NotPerronFrobenius(SINGLE_CURVE)
    rank = rank_exact(omega)
    streak: List[Tuple[int, SpectralReport, Poly]] = []  # (k, report, minpoly)
    for k in range(1, k_max + 1):
        omega_k = scale(omega, k)
        matrix = twist_product(omega_k, word)
        if crosscheck and k <= 3:
            naive = identity_matrix(omega.n)
            for i, p in zip(word.gamma, word.powers):
                q = generator(omega_k, i)
                for _ in range(p):
                    naive = mat_mul(q, naive)
            if not mat_eq(naive, matrix):  # pragma: no cover
                raise ArithmeticError(f"powering identity cross-check failed at k={k}")
        report = SpectralReport.from_charpoly(
            char_poly_exact(matrix), rank, is_pf=True, digits=digits)
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
                word=tuple(
                    (i, k_star * p)
                    for i, p in zip(reversed(word.gamma), reversed(word.powers))
                ),
            )
    raise KBudgetExhausted(
        f"no stable window of {window} scales with degree == rank within k <= {k_max}"
    )
