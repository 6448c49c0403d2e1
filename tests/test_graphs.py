"""Tests for the intersection graph, path reduction, and tour construction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from penner import (
    IntersectionMatrix,
    TwistWord,
    graph_of,
    is_bipartite,
    is_connected,
    is_contractible,
    word_supported,
)
from penner.catalog import catalog_get, catalog_ids
from penner.errors import IndexOutOfRange, InvalidWord
from penner.graphs import OmegaGraph, bipartition, covers_vertices, spanning_tree_tour

from conftest import random_closed_walk, random_omega, tour_path


def test_graph_edges(omega3):
    g = graph_of(omega3)
    assert g.has_edge(1, 2) and g.has_edge(2, 3) and g.has_edge(1, 3)
    assert not g.has_edge(1, 1)


def test_connectivity():
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 0)))
    assert not is_connected(graph_of(om))
    om2 = IntersectionMatrix(((0, 1, 1), (1, 0, 0), (1, 0, 0)))
    assert is_connected(graph_of(om2))


def test_bipartition_even_cycle():
    om = IntersectionMatrix(
        ((0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 1, 0))
    )
    g = graph_of(om)
    assert is_bipartite(g)
    a, b = bipartition(g)
    assert set(a) | set(b) == {1, 2, 3, 4}
    for side in (a, b):
        for u in side:
            for v in side:
                assert not g.has_edge(u, v)


def test_triangle_not_bipartite(omega3):
    assert not is_bipartite(graph_of(omega3))


def test_word_supported(omega3):
    g = graph_of(omega3)
    assert word_supported(TwistWord((1, 2, 3), (1, 1, 1)), g)
    om = IntersectionMatrix(((0, 1, 0), (1, 0, 1), (0, 1, 0)))
    # (1,2,3) needs the wraparound edge 3-1, absent here
    assert not word_supported(TwistWord((1, 2, 3), (1, 1, 1)), graph_of(om))
    assert word_supported(TwistWord((1, 2, 3, 2), (1, 1, 1, 1)), graph_of(om))
    # read cyclically, 1,2,3,1 twists curve 1 twice in a row
    with pytest.raises(InvalidWord, match="cannot start and end on curve 1"):
        word_supported(TwistWord((1, 2, 3, 1), (1, 1, 1, 1)), g)
    with pytest.raises(IndexOutOfRange, match=r"^curve index 9 out of range 1\.\.3$"):
        word_supported(TwistWord((1, 2, 3, 9), (1, 1, 1, 1)), g)


def test_is_general():
    assert covers_vertices((1, 2, 3), 3)
    assert not covers_vertices((1, 2), 3)


# ---------------------------------------------------------------------------
# backtracking reduction
# ---------------------------------------------------------------------------

def test_reduce_spur():
    # out along a path and back: the last spur cancels across the seam
    assert is_contractible((1, 2, 3, 2))
    assert is_contractible((2, 1, 2, 3))


def rotating_reduction(gamma):
    """The reference reduction: reduce as an open path, then look through
    every rotation for a spur across the seam and start again after each one
    found (quadratic time at least)."""
    def reduce_open(seq):
        out = []
        for v in seq:
            if len(out) >= 2 and out[-2] == v:
                out.pop()
            else:
                out.append(v)
        return tuple(out)

    cur = tuple(gamma)
    if len(cur) <= 1:
        return cur
    while True:
        red = reduce_open(cur)
        if len(red) <= 1:
            return red
        if len(red) == 2:
            return (red[0],)
        for s in range(len(red)):
            rotated = reduce_open(red[s:] + red[:s])
            if len(rotated) < len(red):
                cur = rotated
                break
        else:
            return red


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_reduce_backtracking_matches_rotating_reduction(seed):
    # same contractibility on random closed walks and spurred tours
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 6))
    for gamma in (random_closed_walk(om, rng, rng.randint(2, 12)),
                  tour_path(om, rng, spurs=rng.randint(0, 3))):
        if gamma is None:
            continue
        assert is_contractible(gamma) == (len(rotating_reduction(gamma)) <= 1)


def test_reduce_backtracking_of_long_paths():
    # linear time and no recursion: 3,200 vertices
    n = 3200
    assert not is_contractible(tuple(range(1, n + 1)))
    # the triangle 1, 2, 3 with a tail 1, 4, ..., n, walked from the tail's
    # tip: every spur of the tail crosses the seam
    tail = tuple(range(n, 3, -1))
    assert not is_contractible(tail + (1, 2, 3, 1) + tail[:0:-1])
    assert is_contractible(tail + (1, 2, 3, 2, 1) + tail[:0:-1])


def test_length_two_closed_path_contractible():
    # a closed path (a, b) traverses the edge a-b out and back
    assert is_contractible((1, 2))


def test_triangle_not_contractible():
    assert not is_contractible((1, 2, 3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_tour_is_contractible_and_covering(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(2, 8))
    gamma = tour_path(om, rng, spurs=rng.randint(0, 3))
    g = graph_of(om)
    assert word_supported(TwistWord(gamma, (1,) * len(gamma)), g)
    assert covers_vertices(gamma, om.n)
    assert is_contractible(gamma)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_spur_insertion_preserves_reduction(seed):
    rng = random.Random(seed)
    om = random_omega(rng, rng.randint(3, 7))
    adj = graph_of(om).adjacency()
    for gamma in (random_closed_walk(om, rng, rng.randint(2, 12)), tour_path(om, rng)):
        if gamma is None:
            continue
        pos = rng.randrange(len(gamma))
        spurred = gamma[: pos + 1] + (rng.choice(adj[gamma[pos]]), gamma[pos]) + gamma[pos + 1:]
        assert is_contractible(spurred) == is_contractible(gamma)


def test_spanning_tree_tour_shape(omega3):
    tour = spanning_tree_tour(graph_of(omega3))
    assert tour[0] == 1
    assert len(tour) == 2 * (omega3.n - 1)


def recursive_tour(g, root):
    """The depth-first spanning-tree tour, written recursively: the
    reference order for :func:`spanning_tree_tour`."""
    adj, seen, tour = g.adjacency(), {root}, [root]

    def visit(v):
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                tour.append(w)
                visit(w)
                tour.append(v)

    visit(root)
    return tuple(tour[:-1])


@pytest.mark.parametrize("entry_id", catalog_ids())
def test_spanning_tree_tour_matches_recursive_order(entry_id):
    g = graph_of(catalog_get(entry_id).omega)
    for root in range(1, g.n + 1):
        assert spanning_tree_tour(g, root=root) == recursive_tour(g, root), root


def test_spanning_tree_tour_of_a_long_path():
    # a path of 3,000 curves is a spanning tree 3,000 levels deep
    n = 3000
    g = OmegaGraph(n, frozenset((i, i + 1) for i in range(1, n)))
    tour = spanning_tree_tour(g)
    assert tour == tuple(range(1, n + 1)) + tuple(range(n - 1, 1, -1))
    assert is_contractible(tour) and covers_vertices(tour, n)


def test_spanning_tree_tour_of_one_curve_and_of_a_disconnected_graph():
    assert spanning_tree_tour(OmegaGraph(1, frozenset())) == (1,)
    with pytest.raises(ValueError, match="^graph must be connected$"):
        spanning_tree_tour(OmegaGraph(4, frozenset({(1, 2), (3, 4)})), root=3)


def test_spanning_tree_tour_rejects_a_root_outside_the_graph(omega3):
    with pytest.raises(IndexOutOfRange, match=r"^curve index 0 out of range 1\.\.3$"):
        spanning_tree_tour(graph_of(omega3), root=0)
    with pytest.raises(IndexOutOfRange, match=r"^curve index 5 out of range 1\.\.1$"):
        spanning_tree_tour(OmegaGraph(1, frozenset()), root=5)
    with pytest.raises(IndexOutOfRange, match=r"^curve index True out of range 1\.\.3$"):
        spanning_tree_tour(graph_of(omega3), root=True)


def _components(g):
    """Union-find over the edges: the components of ``g`` as vertex sets."""
    parent = list(range(g.n + 1))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in g.edges:
        parent[find(a)] = find(b)
    comps = {}
    for v in range(1, g.n + 1):
        comps.setdefault(find(v), set()).add(v)
    return list(comps.values())


def _two_colourable(g):
    """Brute force: whether some assignment of two colours to ``1..n``
    leaves no edge inside a colour."""
    return any(all((mask >> (a - 1) & 1) != (mask >> (b - 1) & 1) for a, b in g.edges)
               for mask in range(2 ** g.n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 9).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))))
def test_walks_match_brute_force_references(graph):
    # bit t of the mask keeps the t-th of the n(n-1)/2 possible edges
    n, mask = graph
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    g = OmegaGraph(n, frozenset(e for t, e in enumerate(pairs) if mask >> t & 1))
    comps = _components(g)
    assert is_connected(g) == (len(comps) == 1)
    sides = bipartition(g)
    assert (sides is None) == (not _two_colourable(g))
    if sides is not None:
        a, b = sides
        assert sorted(a + b) == list(range(1, n + 1))
        assert not any(g.has_edge(u, v) for side in (a, b) for u in side for v in side)
        assert all(min(comp) in a for comp in comps)
