"""Limits of twist products along rays of intersection matrices.

As the intersection matrix is scaled by ``k -> infinity``, the normalized
action of a twist product converges to a composition of projections that
depends only on the *path* of curve indices, not on the twist exponents.
This module implements those limit objects exactly:

* ``q_arrow(omega, i, j)``: the limit of a single twist applied to a point
  leaving curve ``j`` and landing on curve ``i`` — a projection onto the
  hyperplane ``Z_i = (e_i^T omega)^perp`` in the direction ``e_j``.
* ``p_gamma``: the composition of these projections along a closed path.
* ``f_gamma``: the restriction of ``p_gamma`` to the invariant hyperplane
  ``W = (e_{i_1}^T omega)^perp``, expressed in an explicit basis; its
  characteristic polynomial is the limit of deflated characteristic
  polynomials of the scaled twist products.

All operations are exactly invariant under positive rescaling of ``omega``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence, Tuple

import mpmath as mp

from .core import (
    ExactMatrix,
    IntersectionMatrix,
    Scalar,
    TwistWord,
    exact,
    identity_matrix,
    letter_update,
    mat_mul,
    scale,
    twist_product,
)
from .errors import (
    NotAnEdge,
    NotSupported,
    PreconditionViolated,
    ValidationError,
)
from .graphs import check_covers, graph_of, word_supported
from .spectral import (
    DEFAULT_DIGITS,
    Poly,
    all_roots,
    hadamard_charpoly,
    pf_eigenvalue,
    to_mpf,
    twist_charpoly,
)
from .factor import deflate


# ---------------------------------------------------------------------------
# elementary projections and their compositions
# ---------------------------------------------------------------------------

def q_arrow(omega: IntersectionMatrix, i: int, j: int) -> ExactMatrix:
    """The limiting projection ``Q_{i <- j} = I - omega[i][j]^(-1) T_{ji} omega``.

    It differs from the identity only in row ``j``, has zero ``j``-th column,
    kills the covector ``e_i^T omega`` on the left, and projects onto
    ``Z_i = (e_i^T omega)^perp`` in the direction ``e_j``.  Exactly invariant
    under positive rescaling of ``omega``.

    Raises :class:`NotAnEdge` when ``omega[i][j] == 0``.
    """
    w = omega.entry(i, j)
    if i == j or w == 0:
        raise NotAnEdge(f"curves {i} and {j} do not intersect")
    rows = [list(row) for row in identity_matrix(omega.n)]
    letter_update(rows, j - 1, -1 / Fraction(w), omega.entries[i - 1])
    return tuple(map(tuple, rows))


def p_gamma(omega: IntersectionMatrix, gamma: Sequence[int]) -> ExactMatrix:
    """Composition of limit projections along a closed path.

    For ``gamma = (i_1, ..., i_K)`` this is
    ``Q_{i_1 <- i_K} Q_{i_K <- i_{K-1}} ... Q_{i_2 <- i_1}``
    (the step out of ``i_1`` is applied first).

    Raises :class:`NotSupported` if some consecutive pair (including the
    wrap-around pair) is not an edge of the intersection graph.
    """
    gamma = tuple(gamma)
    if len(gamma) < 2:
        raise NotSupported("a closed path needs at least two vertices")
    product = identity_matrix(omega.n)
    steps = list(zip(gamma, gamma[1:] + gamma[:1]))
    for frm, to in steps:
        try:
            q = q_arrow(omega, to, frm)
        except NotAnEdge as e:
            raise NotSupported(f"path step {frm} -> {to} is not an edge") from e
        # a full product on purpose: a letter_update of the product runs the limit-boundary
        # benchmark 2.7x faster, past what its statistics summarise (ROADMAP item 7)
        product = mat_mul(q, product)
    return product


@dataclass(frozen=True)
class LimitMap:
    """``p_gamma`` restricted to the hyperplane ``W = (e_{i_1}^T omega)^perp``.

    ``matrix`` is the ``(n-1) x (n-1)`` matrix of the restricted map in the
    basis ``b_t = e_t - (w_t / w_m) e_m`` (``t != m``) of ``W``, where ``m``
    is the pivot position (first nonzero entry) of ``w = e_{i_1}^T omega``;
    ``charpoly`` is its characteristic polynomial (the limit of deflated
    characteristic polynomials along the ray).
    """

    matrix: ExactMatrix
    charpoly: Poly


def _restricted(omega: IntersectionMatrix, gamma: Sequence[int]) -> ExactMatrix:
    """The matrix of :class:`LimitMap`: ``p_gamma`` restricted to ``W``."""
    full = p_gamma(omega, gamma)
    n = omega.n
    w = omega.entries[gamma[0] - 1]  # in range and nonzero: p_gamma left curve gamma[0]
    m = next(t for t in range(n) if w[t] != 0)  # 0-based pivot
    others = [t for t in range(n) if t != m]
    # column t: the image of b_t under the full map, whose coordinates in the
    # basis are its entries at the positions in `others` (the pivot entry is
    # determined by membership in W)
    return tuple(
        tuple(exact(full[r][t] - Fraction(w[t]) / Fraction(w[m]) * full[r][m]) for t in others)
        for r in others)


def f_gamma(omega: IntersectionMatrix, gamma: Sequence[int]) -> LimitMap:
    """The limit map of a closed path, restricted to its invariant hyperplane.

    Structure: 0 is always an eigenvalue with one-dimensional eigenspace
    contribution from the collapsed direction; for a *contractible* path
    covering every vertex the characteristic polynomial of the full map
    degenerates to ``x (x - 1)^(n - 2)``.  The characteristic polynomial
    comes from :func:`~penner.spectral.hadamard_charpoly`.

    Raises what :func:`p_gamma` raises: a path whose first curve meets no
    other curve has no edge to leave it by.
    """
    matrix = _restricted(omega, gamma)
    return LimitMap(matrix=matrix, charpoly=hadamard_charpoly(matrix))


def insert_spur(gamma: Sequence[int], position: int, vertex: int) -> Tuple[int, ...]:
    """Insert a backtracking detour ``(..., g_t, v, g_t, ...)`` after the
    1-based ``position``; an elementary discrete homotopy rel the last edge."""
    gamma = tuple(gamma)
    if not 1 <= position <= len(gamma):
        raise ValueError("position out of range")
    t = position - 1
    if vertex == gamma[t]:
        raise ValueError("spur vertex must differ from the path vertex")
    return gamma[:t + 1] + (vertex, gamma[t]) + gamma[t + 1:]


def homotopy_invariance_check(omega: IntersectionMatrix, gamma: Sequence[int],
                              position: int, vertex: int) -> bool:
    """Whether inserting a backtracking spur leaves the restricted limit map
    unchanged (it always should, provided the spur edge exists)."""
    return _restricted(omega, gamma) == _restricted(omega, insert_spur(gamma, position, vertex))


# ---------------------------------------------------------------------------
# quantitative eigenvector estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticsResult:
    lhs: mp.mpf
    rhs: mp.mpf


def eigenvector_asymptotics(
    omega: IntersectionMatrix,
    word: TwistWord,
    k: Scalar = 1,
    digits: int = DEFAULT_DIGITS,
) -> AsymptoticsResult:
    """Check how close the leading left eigenvector is to its limit shape.

    For a word supported on a closed path ``gamma = (i_1, ..., i_K)``
    visiting every vertex, the leading left eigenvector of the twist product
    over ``k * omega`` — normalized as an explicit convex combination of the
    row generators ``e_i^T omega M`` — satisfies

        || v - p_1 e_{i_1}^T omega' - omega'[i_2][i_1]^(-1) e_{i_2}^T omega' ||_inf
            <= 2^K p_max^(K-2) ||omega'||_inf^(K-1)
               / (p_min^K  min_gamma(omega')^K)

    with ``omega' = k * omega`` and ``min_gamma`` the smallest entry of
    ``omega'`` along the path.  Requires ``min_gamma(omega') >= 1``.

    Returns the measured left-hand side and the bound.
    """
    g = graph_of(omega)
    if not word_supported(word, g):
        raise NotSupported("the word must trace a closed path in the graph")
    check_covers(word.gamma, omega.n)
    omega_k = scale(omega, k)
    gamma, powers = word.gamma, word.powers
    n = omega.n
    K = len(gamma)
    pairs = list(zip(gamma, gamma[1:] + gamma[:1]))
    min_gamma = min(omega_k.entry(a, b) for a, b in pairs)
    if min_gamma < 1:
        raise PreconditionViolated(
            f"smallest intersection along the path is {min_gamma} < 1"
        )
    m = twist_product(omega_k, word)
    with mp.workdps(digits + 20):
        # left eigenvector by power iteration inside the invariant cone: the
        # seed, the exact row (1^T omega) M rounded once, lies in C M and the
        # cone is preserved, so y converges to the leading left eigenvector
        mat = mp.matrix([[to_mpf(x) for x in row] for row in m])
        ones_omega = [sum(column) for column in zip(*omega_k.entries)]
        y = mp.matrix([to_mpf(sum(c * x for c, x in zip(ones_omega, column)))
                       for column in zip(*m)])
        y = y / max(abs(v) for v in y)
        for _ in range(2000):
            z = (y.T * mat).T
            z = z / max(abs(v) for v in z)
            if max(abs(a - b) for a, b in zip(z, y)) < mp.mpf(10) ** (-(digits + 5)):
                y = z
                break
            y = z
        i1, i2 = gamma[0], gamma[1]
        p1 = powers[0]
        inv = Fraction(1) / Fraction(omega_k.entry(i2, i1))
        target = tuple(
            p1 * to_mpf(omega_k.entries[i1 - 1][j])
            + to_mpf(inv) * to_mpf(omega_k.entries[i2 - 1][j])
            for j in range(n)
        )
        # the eigenvector is a ray; choose the representative closest to the
        # target in the sup norm.  dist is convex and piecewise linear in the
        # scale t, and y > 0, so its minimum lies where some rising
        # t y_a - target_a meets some falling target_c - t y_c
        def dist(t):
            return max(abs(t * y[j] - target[j]) for j in range(n))

        t_best = min(((target[a] + target[c]) / (y[a] + y[c])
                      for a in range(n) for c in range(a, n)), key=dist)
        lhs = dist(t_best)
        p_max, p_min = max(powers), min(powers)
        norm_inf = max(to_mpf(xx) for row in omega_k.entries for xx in row)
        rhs = (
            mp.mpf(2) ** K
            * mp.mpf(p_max) ** (K - 2)
            * norm_inf ** (K - 1)
            / (mp.mpf(p_min) ** K * to_mpf(min_gamma) ** K)
        )
        return AsymptoticsResult(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# ray convergence / divergence experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayRow:
    scale: Scalar
    charpoly: Poly
    lam: Optional[mp.mpf]
    distance: Optional[mp.mpf]
    magnitudes: Optional[Tuple[mp.mpf, ...]]


@dataclass(frozen=True)
class DivergenceFit:
    """Per-eigenvalue power-law fit ``|eig_i(k)| ~ constant * k^exponent``."""

    exponents: Tuple[float, ...]
    constants: Tuple[float, ...]


@dataclass(frozen=True)
class RayTable:
    supported: bool
    rows: Tuple[RayRow, ...]
    limit: Optional[Poly]
    divergence: Optional[DivergenceFit]


def ray_convergence_experiment(
    omega: IntersectionMatrix,
    word: TwistWord,
    scales: Sequence[Scalar],
    digits: int = DEFAULT_DIGITS,
) -> RayTable:
    """Track characteristic polynomials of twist products along a ray.

    When the word is supported on a closed path of the intersection graph,
    the deflated polynomials ``u_k(x) / (x - lambda_k)`` converge to the
    characteristic polynomial of the restricted limit map ``f_gamma``; the
    table reports the sup-distance at each scale.  The path visits every
    curve, so the graph is connected and each twist product is certified
    Perron-Frobenius: it is built once per scale, for
    :func:`~penner.spectral.pf_eigenvalue`, which reads ``lambda_k`` from
    its exact bounds; ``u_k`` comes from the word's letters without it.

    When the path is *not* supported, the spectrum splits along different
    powers of ``k`` instead: each eigenvalue magnitude, as located by
    :func:`~penner.spectral.all_roots`, is fitted to
    ``constant * k^exponent`` by log-log least squares.  The eigenvalues 1
    of a rank-deficient ``omega`` are exact, so their slots fit exponent 0.

    Raises what :func:`~penner.graphs.word_supported` raises for a word
    that is not a path, :class:`NotGeneral` if the word does not use every
    curve, :class:`ValidationError` if there is no scale or an unsupported path
    comes with fewer than two different scales, and
    :class:`PreconditionViolated` if the root finder does not converge
    (naming the scale on an unsupported path).  A supported path raises
    what :func:`~penner.spectral.pf_eigenvalue` raises.
    """
    supported = word_supported(word, graph_of(omega))
    check_covers(word.gamma, omega.n)
    if not scales:
        raise ValidationError("need at least one scale")
    rows = []
    if supported:
        limit_poly = f_gamma(omega, word.gamma).charpoly
        for k in scales:
            scaled = scale(omega, k)
            product = twist_product(scaled, word)
            u = twist_charpoly(scaled, word)
            lam = pf_eigenvalue(u, digits, product).value
            with mp.workdps(digits + 10):
                target = limit_poly.mpf_coeffs()[::-1]
                dist = max(abs(a - b) for a, b in zip_longest(
                    deflate(u, lam, digits), target, fillvalue=mp.mpf(0)))
            rows.append(RayRow(k, u, lam, dist, None))
        return RayTable(True, tuple(rows), limit_poly, None)
    # divergent branch: fit eigenvalue magnitudes against the scale
    if len(set(scales)) < 2:
        raise ValidationError(
            "need at least two scales of different size to fit growth exponents")
    mags_per_scale = []
    for k in scales:
        u = twist_charpoly(scale(omega, k), word)
        try:
            roots = all_roots(u, digits)
        except PreconditionViolated as e:
            raise PreconditionViolated(f"at k = {k}: {e}") from None
        with mp.workdps(digits + 10):
            mags = tuple(sorted((abs(r) for r in roots), reverse=True))
        mags_per_scale.append(mags)
        rows.append(RayRow(k, u, None, None, mags))
    exponents = []
    constants = []
    nslots = min(len(m) for m in mags_per_scale)
    logs_k = [mp.log(to_mpf(k)) for k in scales]
    mean_x = sum(logs_k) / len(logs_k)
    for slot in range(nslots):
        ys = [mp.log(mags_per_scale[t][slot]) for t in range(len(scales))]
        mean_y = sum(ys) / len(ys)
        num = sum((lx - mean_x) * (ly - mean_y) for lx, ly in zip(logs_k, ys))
        den = sum((lx - mean_x) ** 2 for lx in logs_k)
        slope = num / den
        intercept = mean_y - slope * mean_x
        exponents.append(float(slope))
        constants.append(float(mp.e ** intercept))
    return RayTable(False, tuple(rows), None, DivergenceFit(tuple(exponents), tuple(constants)))
