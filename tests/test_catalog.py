"""Tests for the matrix catalog, augmentation moves, dimension and
degree-set formulas."""

import pytest
import sympy

from penner import (
    IntersectionMatrix,
    SurfaceSpec,
    catalog_get,
    catalog_ids,
    crosscap_augment,
    degree_set,
    degree_set_plus,
    puncture_augment,
    rank_exact,
    teich_dim,
)
from penner.catalog import catalog_verify, mr_matrix
from penner.errors import (
    CurvesIntersect,
    IndexOutOfRange,
    NoPseudoAnosov,
    OutOfFormulaRange,
    UnknownId,
)

from conftest import mr_inverse

EXPECTED_RANKS = {
    "S43-max": 24,
    "N5-rank5": 5,
    "N31-rank4": 4,
    "N40-rank5": 5,
    "N41-rank8": 8,
    "N32-rank7": 7,
    "N13-rank3": 3,
    "N14-rank4": 4,
    "N22-rank3": 3,
    "N22-rank4": 4,
}


def test_catalog_ranks_exact():
    for entry_id, expected in EXPECTED_RANKS.items():
        entry = catalog_get(entry_id)
        assert rank_exact(entry.omega) == expected, entry_id
        assert entry.expected_rank == expected


def test_catalog_mr_family():
    for r in range(3, 13):
        entry = catalog_get(f"Mr-{r}")
        assert entry.omega.n == r
        assert rank_exact(entry.omega) == r
        assert sympy.Matrix(mr_matrix(r).entries).inv() == mr_inverse(r)


def test_catalog_verify_all():
    for entry_id in catalog_ids():
        assert catalog_verify(catalog_get(entry_id)), entry_id


def test_catalog_unknown_id():
    with pytest.raises(UnknownId):
        catalog_get("nope")


def test_s43_max_is_bipartite_rank_24():
    entry = catalog_get("S43-max")
    assert entry.omega.n == 24
    assert entry.bipartite
    assert rank_exact(entry.omega) == 24
    assert str(entry.surface) == "S_{4,3}"


def test_n31_matrix_contents():
    entry = catalog_get("N31-rank4")
    assert entry.omega.entries == (
        (0, 0, 1, 0), (0, 0, 1, 2), (1, 1, 0, 1), (0, 2, 1, 0)
    )


# ---------------------------------------------------------------------------
# augmentation moves
# ---------------------------------------------------------------------------

def test_crosscap_augment_rank_deltas():
    base = catalog_get("Mr-4").omega
    # curves 1 and 2 in M_4 intersect, so pick a disjoint pair from a matrix
    om = IntersectionMatrix(((0, 0, 1), (0, 0, 2), (1, 2, 0)))
    r0 = rank_exact(om)
    for moves in ("E", "ED1", "ED1D2"):
        aug = crosscap_augment(om, 1, 2, moves)
        assert rank_exact(aug) == sympy.Matrix(aug.entries).rank()
    assert rank_exact(crosscap_augment(om, 1, 2, "E")) == r0
    assert rank_exact(crosscap_augment(om, 1, 2, "ED1")) == r0 + 2
    assert rank_exact(crosscap_augment(om, 1, 2, "ED1D2")) == r0 + 3
    # each variant appends a prefix of (e, d1, d2)
    assert [crosscap_augment(om, 1, 2, v).n for v in ("E", "ED1", "ED1D2")] == [4, 5, 6]
    # e = column 1 + column 2, d1 = column 1, d2 = column 2; the new curves
    # meet pairwise twice
    assert crosscap_augment(om, 1, 2, "ED1D2").entries == (
        (0, 0, 1, 0, 0, 0),
        (0, 0, 2, 0, 0, 0),
        (1, 2, 0, 3, 1, 2),
        (0, 0, 3, 0, 2, 2),
        (0, 0, 1, 2, 0, 2),
        (0, 0, 2, 2, 2, 0),
    )
    with pytest.raises(CurvesIntersect):
        crosscap_augment(base, 1, 2, "E")
    with pytest.raises(IndexOutOfRange):
        crosscap_augment(om, 1, 1, "E")


def test_crosscap_augment_checks_index_then_distinct_then_disjoint():
    om = IntersectionMatrix(((0, 0, 1), (0, 0, 2), (1, 2, 0)))
    with pytest.raises(IndexOutOfRange, match=r"^curve index 4 out of range 1\.\.3$"):
        crosscap_augment(om, 4, 4, "bad")
    with pytest.raises(IndexOutOfRange, match="^the two curves must be distinct$"):
        crosscap_augment(om, 1, 1, "bad")
    with pytest.raises(CurvesIntersect, match=r"^curves 1 and 3 intersect \(1 times\)$"):
        crosscap_augment(om, 1, 3, "bad")


def test_puncture_augment_rank_deltas(omega3):
    r0 = rank_exact(omega3)
    for moves in ("D", "DE"):
        aug = puncture_augment(omega3, 1, moves)
        assert rank_exact(aug) == sympy.Matrix(aug.entries).rank()
    assert rank_exact(puncture_augment(omega3, 1, "D")) == r0
    assert rank_exact(puncture_augment(omega3, 1, "DE")) == r0 + 2
    # each variant appends a prefix of (d, e)
    assert [puncture_augment(omega3, 1, v).n for v in ("D", "DE")] == [4, 5]


def test_puncture_augment_structure(omega3):
    aug = puncture_augment(omega3, 2, "DE")
    n = omega3.n
    # d duplicates the column of curve 2; e meets only d, twice
    for j in range(1, n + 1):
        assert aug.entry(n + 1, j) == omega3.entry(2, j)
        assert aug.entry(n + 2, j) == 0
    assert aug.entry(n + 1, n + 2) == 2


# ---------------------------------------------------------------------------
# dimension and degree formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "surface,dim",
    [
        (SurfaceSpec(True, 2, 0), 6),
        (SurfaceSpec(True, 4, 3), 24),
        (SurfaceSpec(True, 1, 0), 2),
        (SurfaceSpec(True, 1, 2), 4),
        (SurfaceSpec(True, 0, 5), 4),
        (SurfaceSpec(False, 5, 0), 9),
        (SurfaceSpec(False, 3, 1), 5),
        (SurfaceSpec(False, 4, 0), 6),
    ],
)
def test_teich_dim(surface, dim):
    assert teich_dim(surface) == dim


def test_teich_dim_out_of_range():
    with pytest.raises(OutOfFormulaRange):
        teich_dim(SurfaceSpec(False, 3, 0))


def test_degree_sets():
    assert degree_set(SurfaceSpec(True, 2, 0)).sets == (frozenset({2, 3, 4, 6}),)
    assert degree_set(SurfaceSpec(False, 3, 1)).sets == (frozenset({3, 4, 5}),)
    # odd punctures and half-dimension 1, but no odd degree in 3..1 to lose
    assert degree_set(SurfaceSpec(True, 1, 1)).sets == (frozenset({2}),)
    with pytest.raises(NoPseudoAnosov):
        degree_set(SurfaceSpec(False, 3, 0))


def test_degree_set_ambiguous_case():
    # odd punctures with odd half-dimension: two candidate sets
    res = degree_set(SurfaceSpec(True, 3, 1))
    assert res.ambiguous and len(res.sets) == 2


def test_degree_set_plus():
    assert degree_set_plus(SurfaceSpec(True, 3, 0)).sets == (frozenset({2, 3, 4, 6}),)
    assert degree_set_plus(SurfaceSpec(False, 5, 0)).sets == (frozenset({3, 4}),)
