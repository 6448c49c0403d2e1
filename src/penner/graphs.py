"""Combinatorics of the intersection graph and of closed index paths.

The graph ``G(omega)`` has vertices ``1..n`` and an edge ``{i, j}`` whenever
``omega[i][j] > 0``.  Closed paths (tuples of vertices read cyclically) are
the combinatorial carriers of twist words and of the boundary-limit maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Sequence, Tuple

from .core import IntersectionMatrix, TwistWord, check_curve_index
from .errors import InvalidWord, NotGeneral

Edge = Tuple[int, int]  # always stored with first < second


@dataclass(frozen=True)
class OmegaGraph:
    """Undirected simple graph on vertices ``1..n``."""

    n: int
    edges: FrozenSet[Edge]

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def adjacency(self) -> dict:
        adj = {v: [] for v in range(1, self.n + 1)}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: sorted(ns) for v, ns in adj.items()}


def graph_of(omega: IntersectionMatrix) -> OmegaGraph:
    """The intersection graph ``G(omega)``."""
    edges = set()
    n = omega.n
    for i in range(n):
        for j in range(i + 1, n):
            if omega.entries[i][j] != 0:
                edges.add((i + 1, j + 1))
    return OmegaGraph(n, frozenset(edges))


def _tree_edges(adj: dict, root: int, seen: set):
    """Yield the edges ``(parent, child)`` of the depth-first spanning tree of
    ``root``'s component as the walk finds them, neighbours in increasing
    order, skipping and adding to ``seen``.  The walk keeps its own stack, so
    the depth of the tree is not limited by Python's recursion limit."""
    seen.add(root)
    # the tree path from the root to the current vertex, each vertex with
    # an iterator over the neighbours it has yet to try
    path = [(root, iter(adj[root]))]
    while path:
        v, untried = path[-1]
        w = next((w for w in untried if w not in seen), None)
        if w is None:
            path.pop()
            continue
        seen.add(w)
        yield v, w
        path.append((w, iter(adj[w])))


def is_connected(g: OmegaGraph) -> bool:
    """Whether ``g`` is connected.  A single vertex counts as connected."""
    return g.n <= 1 or sum(1 for _ in _tree_edges(g.adjacency(), 1, set())) == g.n - 1


def bipartition(g: OmegaGraph) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """A 2-coloring ``(side_a, side_b)`` of ``g``, or ``None`` if not bipartite.

    For disconnected graphs each component is colored independently, with the
    component's smallest vertex placed on side ``a``.
    """
    adj, seen, color = g.adjacency(), set(), {}
    for root in range(1, g.n + 1):
        if root not in seen:
            color[root] = 0
            for v, w in _tree_edges(adj, root, seen):
                color[w] = 1 - color[v]
    if any(color[a] == color[b] for a, b in g.edges):
        return None
    side_a = tuple(v for v in range(1, g.n + 1) if color[v] == 0)
    side_b = tuple(v for v in range(1, g.n + 1) if color[v] == 1)
    return side_a, side_b


def is_bipartite(g: OmegaGraph) -> bool:
    return bipartition(g) is not None


def word_supported(word: TwistWord, g: OmegaGraph) -> bool:
    """Whether the index sequence of ``word`` is a closed path in ``g``.

    Every consecutive pair (including the wrap-around pair when the word has
    at least two letters) must be an edge of ``g``.  Raises
    :class:`IndexOutOfRange` for a curve index outside ``1..n``, and
    :class:`InvalidWord` for a word of two or more letters that starts and
    ends on the same curve: read as a closed path it twists that curve
    twice in a row, so its first and last letters are one letter.
    """
    word.check_indices(g.n)
    gamma = word.gamma
    if len(gamma) == 1:
        return True
    if gamma[0] == gamma[-1]:
        raise InvalidWord(
            f"a closed path cannot start and end on curve {gamma[0]}: merge the "
            "first and last letters into one whose power is their sum")
    for a, b in zip(gamma, gamma[1:] + gamma[:1]):
        if not g.has_edge(a, b):
            return False
    return True


def is_contractible(gamma: Sequence[int]) -> bool:
    """Whether the closed path ``gamma`` is null-homotopic in the graph it
    traces.  ``gamma`` is read cyclically, with consecutive vertices
    distinct, the last and the first included, as :func:`word_supported`
    admits; a single vertex is the constant path.

    A graph's fundamental group is free, so a closed path is freely
    null-homotopic exactly when the based loop ``gamma + (gamma[0],)``
    reduces to its base point.  One stack pass cancels each backtrack
    ``(a, b, a) -> (a)``, in linear time.
    """
    if len(gamma) <= 1:
        return True
    out: list = []
    for v in (*gamma, gamma[0]):
        if len(out) >= 2 and out[-2] == v:
            out.pop()  # a may cancel further
        else:
            out.append(v)
    return len(out) == 1


def covers_vertices(gamma: Sequence[int], n: int) -> bool:
    """Whether the path visits every vertex ``1..n``."""
    return set(gamma) == set(range(1, n + 1))


def check_covers(gamma: Sequence[int], n: int) -> None:
    """Raise :class:`NotGeneral` unless the path visits every curve ``1..n``."""
    if not covers_vertices(gamma, n):
        raise NotGeneral("the path must visit every curve")


def spanning_tree_tour(g: OmegaGraph, root: int = 1) -> Tuple[int, ...]:
    """A contractible closed path visiting every vertex of a connected graph.

    Depth-first tour of a spanning tree rooted at ``root``, neighbours in
    increasing order: each tree edge is traversed once in each direction, so
    the tour is freely null-homotopic.  The final return to the root is left
    implicit (the path closes up).  A root outside ``1..n`` raises
    :class:`IndexOutOfRange`, and a disconnected graph ``ValueError``.
    """
    check_curve_index(root, g.n)
    tour, parent = [root], {}
    for v, w in _tree_edges(g.adjacency(), root, set()):
        while tour[-1] != v:
            tour.append(parent[tour[-1]])  # back up the tree edge
        parent[w] = v
        tour.append(w)
    if len(parent) != g.n - 1:
        raise ValueError("graph must be connected")
    while tour[-1] != root:
        tour.append(parent[tour[-1]])
    # drop the final return to the root: the wrap-around pair closes the path
    return tuple(tour[:-1]) or (root,)
