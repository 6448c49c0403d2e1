"""Shared fixtures and random-instance generators for the test suite.

All randomized tests draw from explicitly seeded ``random.Random`` instances
so failures are reproducible without hypothesis' database.
"""

import functools
import random
import sys
from fractions import Fraction

import pytest
import sympy

from penner import IntersectionMatrix, Poly, TwistWord, graph_of, validate_omega
from penner.core import exact
from penner.graphs import bipartition, spanning_tree_tour


def random_omega(rng, n, max_entry=3, density=0.6, connected=True):
    """A random symmetric nonnegative integer matrix with zero diagonal.

    With ``connected=True`` a random spanning tree of positive entries is
    superimposed so the intersection graph is connected.
    """
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                v = rng.randint(1, max_entry)
                rows[a][b] = rows[b][a] = v
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for prev, cur in zip(order, order[1:]):
            if rows[prev][cur] == 0:
                v = rng.randint(1, max_entry)
                rows[prev][cur] = rows[cur][prev] = v
    return IntersectionMatrix(tuple(tuple(r) for r in rows))


def random_rational_omega(rng, n):
    """A random intersection matrix with ``"p/q"`` string entries, read
    through :func:`penner.core.validate_omega`."""
    rows = [["0"] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.6:
                rows[a][b] = rows[b][a] = f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"
    return validate_omega(rows)


@functools.lru_cache(maxsize=None)
def collapsed_charpoly(n):
    """``x (x - 1)^(n - 2)``, the characteristic polynomial of a completely
    collapsed limit map on ``n`` curves, expanded by sympy."""
    x = sympy.Symbol("x")
    return Poly([int(c) for c in reversed(sympy.Poly(x * (x - 1) ** (n - 2), x).all_coeffs())])


def tour_path(omega, rng=None, spurs=0):
    """A contractible closed path visiting every vertex (spanning-tree tour),
    optionally with random backtracking spurs inserted."""
    g = graph_of(omega)
    adj = g.adjacency()
    root = rng.randint(1, omega.n) if rng is not None else 1
    path = list(spanning_tree_tour(g, root=root))
    for _ in range(spurs):
        pos = rng.randrange(len(path))
        v = path[pos]
        nbs = adj[v]
        if not nbs:
            continue
        u = rng.choice(nbs)
        # insert ... v, u, v ... after position pos
        path[pos + 1:pos + 1] = [u, v]
    return tuple(path)


def random_closed_walk(omega, rng, steps):
    """A random supported closed walk: a random walk followed by the shortest
    route back to the start.  Not contractible in general."""
    from collections import deque

    adj = graph_of(omega).adjacency()
    start = rng.randint(1, omega.n)
    walk = [start]
    for _ in range(steps):
        nbs = adj[walk[-1]]
        if not nbs:
            return None
        walk.append(rng.choice(nbs))
    # shortest route from the end of the walk back to the start (BFS)
    parent = {walk[-1]: None}
    q = deque([walk[-1]])
    while q and start not in parent:
        v = q.popleft()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                q.append(u)
    route = [start]
    while parent[route[-1]] is not None:
        route.append(parent[route[-1]])
    route.reverse()  # walk[-1] ... start
    full = walk + route[1:-1]
    # strip immediate repeats (including around the wraparound)
    out = []
    for v in full:
        if out and out[-1] == v:
            continue
        out.append(v)
    while len(out) > 1 and out[0] == out[-1]:
        out.pop()
    return tuple(out) if len(out) >= 2 else None


def sympy_mat_vec(a, v):
    """The exact product ``a v`` by sympy's ``Matrix``, entries back as
    ``Fraction``s: an oracle independent of the package's matrix code."""
    return tuple(Fraction(int(x.p), int(x.q)) for x in sympy.Matrix(a) * sympy.Matrix(v))


def sympy_preserves_form(omega, m):
    """Whether ``M^T (U omega) M == U omega`` by sympy, for a bipartite
    ``omega`` and ``U = diag(+1 on one side, -1 on the other)``: ``U omega``
    is the alternating form that every twist product over ``omega``
    preserves (it is skew because each edge joins the two sides)."""
    side_a, _side_b = bipartition(graph_of(omega))
    u = sympy.diag(*(1 if i in side_a else -1 for i in range(1, omega.n + 1)))
    form = u * sympy.Matrix(omega.entries)
    m = sympy.Matrix(m)
    return m.T * form * m == form


def height(omega, v):
    """The quadratic form ``h(v) = (1/2) v^T omega v``, exactly.  For any
    elementary twist ``Q_i``, ``h(Q_i v) - h(v) = ||Q_i v - v||^2`` (both
    sides equal ``s^2`` with ``s = (e_i^T omega) v``).  Each entry of ``v``
    passes through :func:`penner.core.exact`, so a float raises
    ``TypeError``."""
    v = tuple(map(exact, v))
    n = range(omega.n)
    return exact(Fraction(sum(omega.entries[i][j] * v[i] * v[j] for i in n for j in n), 2))


def sympy_is_irreducible(p):
    """Whether ``p`` is irreducible over the rationals, by sympy's own test."""
    return sympy.Poly(p.coeffs[::-1], sympy.Symbol("x")).is_irreducible


def mr_inverse(r):
    """The closed form of ``mr_matrix(r)`` inverted, as expected data:
    ``1/(r-1)`` off the diagonal and ``-(r-2)/(r-1)`` on it."""
    return sympy.Matrix(r, r, lambda i, j: sympy.Rational(-(r - 2) if i == j else 1, r - 1))


def collatz_wielandt_reference(m, digits):
    """``core.collatz_wielandt``'s iteration with each step's ratios
    ``w_i / v_i`` kept as a list of fractions, the bounds read off by
    ``min`` and ``max``."""
    import math

    from penner.core import COLLATZ_WIELANDT_STEPS

    lcd = math.lcm(*(Fraction(x).denominator for row in m for x in row))
    a = [[int(x * lcd) for x in row] for row in m]
    keep = int(3.33 * digits) + 40
    v = [1] * len(a)
    for _ in range(COLLATZ_WIELANDT_STEPS):
        w = [sum(x * y for x, y in zip(row, v)) for row in a]
        ratios = [Fraction(x, y) for x, y in zip(w, v)]
        lo, hi = min(ratios), max(ratios)
        if (hi - lo) * 10 ** (digits + 6) <= lo:
            return lo / lcd, hi / lcd
        shift = max(min(w).bit_length() - keep, 0)
        v = [x >> shift for x in w]
    return None


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` through ``monkeypatch`` (a ``pytest.MonkeyPatch``)
    in every ``penner`` module that binds it; returns the list its calls are
    appended to."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if (key == "penner" or key.startswith("penner.")) and vars(mod).get(name) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_pf_eigenvalue(monkeypatch):
    """Count the calls of ``penner.spectral.pf_eigenvalue``."""
    import penner.spectral

    return count_calls(monkeypatch, penner.spectral, "pf_eigenvalue")


def general_word(omega, rng, max_power=3):
    """A random general word: spanning-tree tour with random positive powers."""
    gamma = tour_path(omega, rng)
    powers = tuple(rng.randint(1, max_power) for _ in gamma)
    return TwistWord(gamma, powers)


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def omega3():
    return IntersectionMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))


@pytest.fixture
def divergent4():
    return IntersectionMatrix(((0, 0, 1, 2), (0, 0, 1, 1), (1, 1, 0, 1), (2, 1, 1, 0)))
