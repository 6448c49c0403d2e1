"""Catalog of curve collections, augmentation moves, and degree sets.

The catalog holds intersection matrices of explicit filling curve systems on
surfaces, keyed by id, each carrying the surface it lives on and its exact
rank.  Two augmentation moves (adding curves around a crosscap or around a
puncture) change the rank by a controlled amount and drive the realization
of every admissible algebraic degree.

Degree sets: for an orientable surface ``S`` the set of algebraic degrees of
stretch factors arising from this construction is

    D(S) = {even d : 2 <= d <= dimTeich} u {odd d : 3 <= d <= dimTeich/2},

except that when the number of punctures and ``dimTeich/2`` are both odd the
odd range may shrink by one — both candidates are reported with an ambiguity
flag.  For a nonorientable surface ``N`` (other than the few small ones
carrying no pseudo-Anosov maps) every degree ``3 <= d <= dimTeich`` occurs.
The orientation-double-cover variants ``degree_set_plus`` bound the degree
through the first homology of the closed surface instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from .core import IntersectionMatrix, check_curve_index, exact, validate_omega
from .errors import (
    CurvesIntersect,
    IndexOutOfRange,
    NoPseudoAnosov,
    OutOfFormulaRange,
    UnknownId,
    ValidationError,
)
from .graphs import graph_of, is_bipartite
from .spectral import rank_exact


# ---------------------------------------------------------------------------
# surfaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceSpec:
    """A finite-type surface: orientable genus-``g`` or nonorientable with
    ``genus`` crosscaps, with ``punctures`` punctures."""

    orientable: bool
    genus: int
    punctures: int

    def __post_init__(self):
        if self.genus < 0 or self.punctures < 0:
            raise ValidationError("genus and punctures must be nonnegative")
        if not self.orientable and self.genus < 1:
            raise ValidationError("a nonorientable surface needs at least one crosscap")

    def __str__(self):
        letter = "S" if self.orientable else "N"
        return f"{letter}_{{{self.genus},{self.punctures}}}"


def teich_dim(surface: SurfaceSpec) -> int:
    """Dimension of the Teichmueller space.

    Orientable: ``6g - 6 + 2n`` for ``g >= 2``; the torus contributes 2 and
    each puncture on it 2 more; spheres with ``n >= 4`` punctures give
    ``2n - 6`` and fewer punctures give 0.  Nonorientable: ``3g + 2n - 6``,
    valid when ``g >= 3`` and ``g + n >= 5``, or ``g <= 2`` and
    ``g + n >= 4``, or ``(g, n)`` is ``(4, 0)`` or ``(3, 1)``; outside those
    ranges :class:`OutOfFormulaRange` is raised.
    """
    g, n = surface.genus, surface.punctures
    if surface.orientable:
        if g >= 2:
            return 6 * g - 6 + 2 * n
        if g == 1:
            return 2 if n == 0 else 2 * n
        # g == 0
        return 2 * n - 6 if n >= 4 else 0
    in_range = (
        (g >= 3 and g + n >= 5)
        or (1 <= g <= 2 and g + n >= 4)
        or (g, n) in ((4, 0), (3, 1))
    )
    if not in_range:
        raise OutOfFormulaRange(
            f"no dimension formula recorded for {surface}"
        )
    return 3 * g + 2 * n - 6


_NO_PA_NONORIENTABLE = {(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)}


def admits_pseudo_anosov(surface: SurfaceSpec) -> bool:
    """Whether the surface carries any pseudo-Anosov map.

    The exceptional nonorientable surfaces are ``N_{1,0..2}``, ``N_{2,0..1}``
    and ``N_{3,0}``; orientable surfaces fail exactly when their
    Teichmueller space is a point (sphere with at most three punctures,
    where the mapping class group is finite).
    """
    g, n = surface.genus, surface.punctures
    if surface.orientable:
        return not (g == 0 and n <= 3)
    return (g, n) not in _NO_PA_NONORIENTABLE


# ---------------------------------------------------------------------------
# degree sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSetResult:
    """One or two candidate degree sets; two only in the ambiguous case."""

    sets: Tuple[FrozenSet[int], ...]
    ambiguous: bool


def _every_other(lo: int, hi: int) -> FrozenSet[int]:
    return frozenset(range(lo, hi + 1, 2))


def degree_set(surface: SurfaceSpec) -> DegreeSetResult:
    """Algebraic degrees of stretch factors realized on ``surface``.

    Raises :class:`NoPseudoAnosov` for surfaces with no pseudo-Anosov maps.
    """
    if not admits_pseudo_anosov(surface):
        raise NoPseudoAnosov(f"{surface} carries no pseudo-Anosov map")
    dim = teich_dim(surface)
    if surface.orientable:
        half = dim // 2
        evens = _every_other(2, dim)
        # with punctures odd and dim/2 odd, the top odd degree dim/2 may be
        # absent; below 3 (S_{1,1}) there is no odd degree to lose
        if surface.punctures % 2 == 0 or half % 2 == 0 or half < 3:
            return DegreeSetResult((evens | _every_other(3, half),), False)
        big = evens | _every_other(3, half)
        small = evens | _every_other(3, half - 1)
        return DegreeSetResult((big, small), True)
    return DegreeSetResult((frozenset(range(3, dim + 1)),), False)


def degree_set_plus(surface: SurfaceSpec) -> DegreeSetResult:
    """Degrees of ``lambda + 1/lambda`` — equivalently, degrees counted
    through the homology of the closed surface.

    Orientable ``S_g``: even degrees ``2..2g`` and odd degrees ``3..g``.
    Nonorientable ``N_g``: all degrees ``3..g-1``.
    """
    if not admits_pseudo_anosov(surface):
        raise NoPseudoAnosov(f"{surface} carries no pseudo-Anosov map")
    g = surface.genus
    if surface.orientable:
        return DegreeSetResult((_every_other(2, 2 * g) | _every_other(3, g),), False)
    return DegreeSetResult((frozenset(range(3, g)),), False)


# ---------------------------------------------------------------------------
# augmentation moves
# ---------------------------------------------------------------------------

_CROSSCAP_VARIANTS = ("E", "ED1", "ED1D2")
_PUNCTURE_VARIANTS = ("D", "DE")


def crosscap_augment(
    omega: IntersectionMatrix, i1: int, i2: int, variant: str = "ED1D2"
) -> IntersectionMatrix:
    """Add curves through a crosscap sitting between two disjoint curves.

    Requires ``omega[i1][i2] == 0`` (the two curves are disjoint).  The new
    curves are appended in the order ``e``, ``d1``, ``d2``:

    * ``e`` meets the old curves like ``i1`` and ``i2`` combined
      (column ``i1`` + column ``i2``),
    * ``d1`` like ``i1`` alone, ``d2`` like ``i2`` alone,
    * each pair of new curves meets twice.

    Variants keep a prefix: ``"E"`` appends ``e`` only (rank unchanged),
    ``"ED1"`` appends ``e, d1`` (rank + 2), ``"ED1D2"`` all three (rank + 3).
    """
    w = omega.entry(i1, i2)
    if i1 == i2:
        raise IndexOutOfRange("the two curves must be distinct")
    if w != 0:
        raise CurvesIntersect(f"curves {i1} and {i2} intersect ({w} times)")
    if variant not in _CROSSCAP_VARIANTS:
        raise ValueError(f"variant must be one of {_CROSSCAP_VARIANTS}")
    d1 = [row[i1 - 1] for row in omega.entries]
    d2 = [row[i2 - 1] for row in omega.entries]
    e = [exact(a + b) for a, b in zip(d1, d2)]
    return _append_curves(omega, [e, d1, d2][:_CROSSCAP_VARIANTS.index(variant) + 1])


def puncture_augment(
    omega: IntersectionMatrix, c: int, variant: str = "DE"
) -> IntersectionMatrix:
    """Add curves around a puncture next to curve ``c``.

    ``d`` runs parallel to ``c`` on the other side of the puncture, so it
    meets every old curve exactly as ``c`` does and is disjoint from ``c``;
    ``e`` is a small curve meeting only ``d``, twice.

    Variants: ``"D"`` appends ``d`` only (rank unchanged), ``"DE"`` appends
    ``d`` and ``e`` (rank + 2).
    """
    check_curve_index(c, omega.n)
    if variant not in _PUNCTURE_VARIANTS:
        raise ValueError(f"variant must be one of {_PUNCTURE_VARIANTS}")
    d = [row[c - 1] for row in omega.entries]
    e = [0] * omega.n
    return _append_curves(omega, [d, e][:_PUNCTURE_VARIANTS.index(variant) + 1])


#: How often any two of the curves added by one augmentation move meet.
_NEW_PAIR_INTERSECTIONS = 2


def _append_curves(omega, new_cols):
    """Extend ``omega`` by new curves with given old-curve intersection
    columns; any two new curves meet ``_NEW_PAIR_INTERSECTIONS`` times."""
    k = len(new_cols)
    rows = [list(row) + [new_cols[t][r] for t in range(k)]
            for r, row in enumerate(omega.entries)]
    for t in range(k):
        rows.append(list(new_cols[t])
                    + [0 if u == t else _NEW_PAIR_INTERSECTIONS for u in range(k)])
    return validate_omega(rows)


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    id: str
    surface: SurfaceSpec
    omega: IntersectionMatrix
    expected_rank: int
    bipartite: bool
    notes: str = ""


# The genus-4, 3-puncture collection achieving the full rank 24 = dimTeich:
# block form [[0, X], [X^T, 0]] over the 12 + 12 curves below.
_X12 = (
    (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (1, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 2, 1, 2, 2, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 1, 2, 2, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 2, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0),
)


def _bipartite_double(x) -> IntersectionMatrix:
    a = len(x)
    b = len(x[0])
    rows = []
    for r in range(a):
        rows.append([0] * a + list(x[r]))
    for c in range(b):
        rows.append([x[r][c] for r in range(a)] + [0] * b)
    return validate_omega(rows)


def mr_matrix(r: int) -> IntersectionMatrix:
    """``r`` curves pairwise intersecting once: zero diagonal, ones off it."""
    if r < 2:
        raise ValueError("need at least two curves")
    return validate_omega([
        [0 if i == j else 1 for j in range(r)] for i in range(r)
    ])


def _entry(id_, surface, raw, rank, notes=""):
    omega = validate_omega(raw)
    return CatalogEntry(
        id=id_,
        surface=surface,
        omega=omega,
        expected_rank=rank,
        bipartite=is_bipartite(graph_of(omega)),
        notes=notes,
    )


@functools.cache
def _build_catalog() -> Dict[str, CatalogEntry]:
    entries = []
    entries.append(_entry(
        "S43-max", SurfaceSpec(True, 4, 3), _bipartite_double(_X12), 24,
        "filling collection on the genus-4 surface with 3 punctures whose "
        "rank equals the full Teichmueller dimension 24",
    ))
    for r in range(3, 13):
        entries.append(_entry(
            f"Mr-{r}", SurfaceSpec(False, r + 1, 0), mr_matrix(r), r,
            f"{r} one-sided-companion curves pairwise meeting once; the "
            "matrix has an explicit exact inverse",
        ))
    entries.append(_entry(
        "N5-rank5", SurfaceSpec(False, 5, 0),
        [[0, 0, 1, 0, 0],
         [0, 0, 1, 1, 2],
         [1, 1, 0, 0, 0],
         [0, 1, 0, 0, 1],
         [0, 2, 0, 1, 0]], 5,
        "five curves on the closed nonorientable genus-5 surface, full rank",
    ))
    entries.append(_entry(
        "N31-rank4", SurfaceSpec(False, 3, 1),
        [[0, 0, 1, 0],
         [0, 0, 1, 2],
         [1, 1, 0, 1],
         [0, 2, 1, 0]], 4,
        "four curves on the once-punctured nonorientable genus-3 surface; "
        "dropping the first curve leaves a rank-3 triple",
    ))
    entries.append(_entry(
        "N40-rank5", SurfaceSpec(False, 4, 0),
        [[0, 2, 2, 2, 2],
         [2, 0, 2, 2, 2],
         [2, 2, 0, 2, 2],
         [2, 2, 2, 0, 4],
         [2, 2, 2, 4, 0]], 5,
        "five curves on the closed nonorientable genus-4 surface; leading "
        "principal minors realize ranks 3 and 4 as well",
    ))
    entries.append(_entry(
        "N41-rank8", SurfaceSpec(False, 4, 1),
        [[0, 2, 2, 2, 2, 2, 4, 0],
         [2, 0, 2, 2, 2, 2, 4, 0],
         [2, 2, 0, 4, 4, 4, 8, 0],
         [2, 2, 4, 0, 0, 0, 0, 0],
         [2, 2, 4, 0, 0, 2, 2, 2],
         [2, 2, 4, 0, 2, 0, 2, 2],
         [4, 4, 8, 0, 2, 2, 0, 4],
         [0, 0, 0, 0, 2, 2, 4, 0]], 8,
        "eight curves on the once-punctured nonorientable genus-4 surface",
    ))
    entries.append(_entry(
        "N32-rank7", SurfaceSpec(False, 3, 2),
        [[0, 2, 2, 2, 2, 2, 4],
         [2, 0, 0, 2, 4, 4, 4],
         [2, 0, 0, 2, 4, 2, 2],
         [2, 2, 2, 0, 2, 2, 4],
         [2, 4, 4, 2, 0, 0, 4],
         [2, 4, 2, 2, 0, 0, 2],
         [4, 4, 2, 4, 4, 2, 0]], 7,
        "seven curves on the twice-punctured nonorientable genus-3 surface",
    ))
    entries.append(_entry(
        "N13-rank3", SurfaceSpec(False, 1, 3),
        [[0, 2, 2], [2, 0, 2], [2, 2, 0]], 3,
        "three curves on the thrice-punctured projective plane",
    ))
    entries.append(_entry(
        "N14-rank4", SurfaceSpec(False, 1, 4),
        [[0, 0, 2, 2],
         [0, 0, 2, 0],
         [2, 2, 0, 2],
         [2, 0, 2, 0]], 4,
        "four curves on the four-times-punctured projective plane",
    ))
    entries.append(_entry(
        "N22-rank3", SurfaceSpec(False, 2, 2),
        [[0, 2, 2], [2, 0, 4], [2, 4, 0]], 3,
        "three curves on the twice-punctured Klein bottle",
    ))
    entries.append(_entry(
        "N22-rank4", SurfaceSpec(False, 2, 2),
        [[0, 2, 2, 2],
         [2, 0, 2, 2],
         [2, 2, 0, 4],
         [2, 2, 4, 0]], 4,
        "four curves on the twice-punctured Klein bottle",
    ))
    return {e.id: e for e in entries}


def catalog_ids() -> Tuple[str, ...]:
    return tuple(_build_catalog().keys())


def catalog_get(entry_id: str) -> CatalogEntry:
    try:
        return _build_catalog()[entry_id]
    except KeyError:
        raise UnknownId(
            f"unknown catalog id {entry_id!r}; known ids: {', '.join(catalog_ids())}"
        ) from None


def catalog_verify(entry: CatalogEntry) -> bool:
    """Exact check that the stored rank matches the matrix."""
    return rank_exact(entry.omega) == entry.expected_rank
