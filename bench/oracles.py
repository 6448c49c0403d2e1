"""Independent exact oracles for the benchmark's jobs.

Nothing here calls the package under test.  The oracles rebuild each twist
product naively, one elementary matrix ``Q_i = I + D_i * omega`` at a time,
and compare the program's answers with sympy's exact linear algebra and with
exact rational sign changes.  Every check returns a list of problems; an
empty list means the answer passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Optional, Sequence

import sympy
from sympy import QQ, ZZ
from sympy.polys.matrices import DomainMatrix

X = sympy.Symbol("x")
Coeffs = List[int]  # polynomial coefficients, leading first

# The program prints lambda with 50 significant digits; the bracket leaves
# five digits of room for rounding.
LAMBDA_REL = Fraction(1, 10 ** 45)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def as_domain_matrix(rows: Sequence[Sequence]) -> DomainMatrix:
    """Rows of ints or Fractions as a sympy matrix over ZZ or QQ."""
    if all(isinstance(x, int) for row in rows for x in row):
        return DomainMatrix([[ZZ(x) for x in row] for row in rows],
                            (len(rows), len(rows[0])), ZZ)
    return DomainMatrix(
        [[QQ(Fraction(x).numerator, Fraction(x).denominator) for x in row]
         for row in rows], (len(rows), len(rows[0])), QQ)


def naive_product(omega: Sequence[Sequence[int]], k: int,
                  gamma: Sequence[int], powers: Sequence[int]) -> DomainMatrix:
    """``Q_{i_K}^{p_K} ... Q_{i_1}^{p_1}`` over ``k * omega``, multiplying
    one elementary matrix at a time."""
    n = len(omega)
    product = DomainMatrix.eye(n, ZZ).to_sparse()
    for i, p in zip(gamma, powers):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i - 1] = [int(i - 1 == c) + k * omega[i - 1][c] for c in range(n)]
        q = as_domain_matrix(rows).to_sparse()
        for _ in range(p):
            product = q * product
    return product.to_dense()


def charpoly(m: DomainMatrix) -> Coeffs:
    return [int(c) if m.domain == ZZ else Fraction(int(c.numerator), int(c.denominator))
            for c in m.charpoly()]


def rank(rows: Sequence[Sequence]) -> int:
    return as_domain_matrix(rows).convert_to(QQ).rank()


def to_sympy(coeffs: Sequence) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
                       for c in coeffs], X, domain=QQ)


def sign_at(coeffs: Sequence[int], x: Fraction) -> int:
    """Exact sign of an integer polynomial at a rational point."""
    a, b = x.numerator, x.denominator
    d = len(coeffs) - 1
    total = sum(c * a ** (d - i) * b ** i for i, c in enumerate(coeffs))
    return (total > 0) - (total < 0)


# ---------------------------------------------------------------------------
# reading the program's answers
# ---------------------------------------------------------------------------

def parse_poly(text: str) -> Coeffs:
    """Integer coefficients, leading first, of a polynomial printed as
    ``x^3 - 7*x^2 + 5*x - 1``."""
    tokens = text.split()
    terms = [tokens[0]] + [s + b for s, b in zip(tokens[1::2], tokens[2::2])]
    coeffs = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if "x" in body:
            coeff, _, power = body.rpartition("*")
            value, exponent = int(coeff or 1), int(power[2:] or 1)
        else:
            value, exponent = int(body), 0
        coeffs[exponent] = coeffs.get(exponent, 0) + sign * value
    return [coeffs.get(e, 0) for e in range(max(coeffs), -1, -1)]


def poly_coeffs(poly) -> list:
    """Leading-first coefficients of a program ``Poly`` (stored constant first)."""
    return list(reversed(poly.coeffs))


def mpf_fraction(x) -> Fraction:
    """The exact binary value held by an mpmath number."""
    man, exp = x.man_exp
    return Fraction(int(man) * 2 ** int(exp)) if exp >= 0 else Fraction(int(man), 2 ** int(-exp))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def unit_quotient(chi: Coeffs, rank_: int) -> Optional[Coeffs]:
    """``chi / (x - 1)^(n - rank)``, or None if the division is not exact."""
    unit = sympy.Poly((X - 1) ** (len(chi) - 1 - rank_), X, domain=QQ)
    quotient, remainder = to_sympy(chi).div(unit)
    return [int(c) for c in quotient.all_coeffs()] if remainder.is_zero else None


def problem(ok: bool, message: str) -> List[str]:
    return [] if ok else [message]


def check_charpoly(chi: Coeffs, m: DomainMatrix) -> List[str]:
    """``chi`` against the naive product ``m``: ``c_{n-1} = -trace``,
    ``chi(0) = (-1)^n`` (twist products are unipotent), and equality with
    sympy's characteristic polynomial."""
    n = m.shape[0]
    if len(chi) != n + 1:
        return [f"charpoly has degree {len(chi) - 1}, expected {n}"]
    rows = m.to_list()
    return (problem(chi[1] == -sum(int(rows[i][i]) for i in range(n)),
                    "c_{n-1} != -trace(M)")
            + problem(chi[-1] == (-1) ** n, "chi(0) != (-1)^n")
            + problem(chi == charpoly(m),
                      "differs from sympy's charpoly of the naive product"))


def check_minpoly(minpoly: Coeffs, reduced: Coeffs) -> List[str]:
    """The minimal polynomial divides the reduced charpoly exactly and is
    irreducible over the rationals."""
    return (problem(to_sympy(reduced).rem(to_sympy(minpoly)).is_zero,
                    "minpoly does not divide the reduced charpoly")
            + problem(to_sympy(minpoly).is_irreducible, "minpoly is reducible"))


def check_lambda(lam: Fraction, poly: Coeffs, lower, upper) -> List[str]:
    """``poly`` changes sign on a tight bracket around ``lam``, and
    ``lower <= lam <= upper``."""
    eps = LAMBDA_REL * max(1, abs(lam))
    return (problem(sign_at(poly, lam - eps) * sign_at(poly, lam + eps) < 0,
                    "no sign change of its polynomial on the bracket")
            + problem(lower <= lam <= upper,
                      f"lambda outside [{float(lower)}, {float(upper)}]"))


def pf_bounds(omega: Sequence[Sequence[int]], k: int, m: DomainMatrix):
    """``min_i (1 + k * sum_j omega_ij) <= lambda <= max row sum of M``.

    For a word using every curve, every row of ``M`` dominates the matching
    row of ``Q_i``, so the smallest row sum bounds the leading eigenvalue
    from below; the largest row sum bounds it from above.
    """
    lower = min(1 + k * sum(row) for row in omega)
    upper = max(sum(int(v) for v in row) for row in m.to_list())
    return lower, upper


def check_reduced(chi: Coeffs, reduced: Coeffs, rank_: int) -> List[str]:
    """``chi = (x - 1)^(n - rank) * reduced`` with ``reduced(1) != 0``."""
    return problem(unit_quotient(chi, rank_) == reduced,
                   "charpoly != (x-1)^(n-rank) * reduced charpoly") + problem(
        sum(reduced) != 0, "reduced charpoly vanishes at 1")


def is_pf_certified(omega: Sequence[Sequence[int]], gamma: Sequence[int]) -> bool:
    """Connected intersection graph and a word using every curve."""
    n = len(omega)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in range(n):
            if omega[v][w] and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n and set(gamma) == set(range(1, n + 1))


# ---------------------------------------------------------------------------
# verdicts per workload: check name -> problems
# ---------------------------------------------------------------------------

def verdict_recipe(job: dict, result, omega) -> dict:
    """A ``run_recipe`` result: charpoly at ``k*`` against the naive product,
    minpoly, lambda bracket, and degree equal to sympy's rank of omega."""
    k = result.k_star
    m = naive_product(omega, k, job["gamma"], job["powers"])
    rank_ = rank(omega)
    chi = poly_coeffs(result.charpoly)
    minpoly = poly_coeffs(result.minpoly)
    reduced = unit_quotient(chi, rank_)
    lower, upper = pf_bounds(omega, k, m)
    return {
        "charpoly": check_charpoly(chi, m),
        "minpoly": check_minpoly(minpoly, reduced) if reduced else
        ["charpoly is not divisible by (x-1)^(n-rank)"],
        "lambda": check_lambda(mpf_fraction(result.lam), minpoly, lower, upper),
        "degree": problem(result.degree == rank_ == len(minpoly) - 1,
                          f"degree {result.degree} != rank(omega) {rank_}"),
    }


def verdict_degree(job: dict, printed: str, omega) -> dict:
    """A ``penner degree --json`` answer, checked field by field."""
    payload = json.loads(printed)
    k = job["k"]
    m = naive_product(omega, k, job["gamma"], job["powers"])
    rank_ = rank(omega)
    chi = parse_poly(payload["charpoly"])
    reduced = parse_poly(payload["reduced"])
    minpoly = parse_poly(payload["minpoly"])
    product = sympy.Poly(1, X, domain=QQ)
    for factor in payload["factors"]:
        product *= to_sympy(parse_poly(factor["poly"])) ** factor["multiplicity"]
    lower, upper = pf_bounds(omega, k, m)
    return {
        "charpoly": check_charpoly(chi, m),
        "rank": problem(payload["rank"] == rank_,
                        f"rank {payload['rank']} != sympy rank {rank_}"),
        "reduced": check_reduced(chi, reduced, rank_)
        + problem(product == to_sympy(reduced), "factors do not multiply to reduced")
        + problem(payload["complexity"] == len(reduced) - 1,
                  "complexity != degree of the reduced charpoly"),
        "minpoly": check_minpoly(minpoly, reduced)
        + problem(payload["degree"] == len(minpoly) - 1, "degree != deg(minpoly)"),
        "lambda": check_lambda(Fraction(payload["lambda"]), minpoly, lower, upper),
    }


DIVERGENT_EXPONENTS = (3, 1, -1, -3)


def verdict_limit(job: dict, result, omega) -> dict:
    """Limit maps, ray tables and eigenvector estimates."""
    kind = job["kind"]
    if kind == "fgamma":
        limit, same = result
        chi = poly_coeffs(limit.charpoly)
        collapsed = [int(c) for c in sympy.Poly(
            X * (X - 1) ** (len(omega) - 2), X).all_coeffs()]
        return {
            "homotopy": problem(same is True, "spur insertion changed f_gamma"),
            "limit-charpoly": problem(chi == charpoly(as_domain_matrix(limit.matrix)),
                                      "f_gamma charpoly differs from sympy's")
            + problem(chi == collapsed, "f_gamma charpoly != x(x-1)^(n-2)"),
        }
    if kind == "eigenvector":
        return {"eigenvector-bound": problem(result.lhs <= result.rhs, "lhs > rhs")}
    checks = {"charpoly": problem(len(result.rows) == len(job["scales"]),
                                  "not one row per scale")}
    for scale, row in zip(job["scales"], result.rows):
        m = naive_product(omega, scale, job["gamma"], job["powers"])
        checks["charpoly"] += check_charpoly(poly_coeffs(row.charpoly), m)
        if row.lam is not None:
            lower, upper = pf_bounds(omega, scale, m)
            checks.setdefault("lambda", []).extend(check_lambda(
                mpf_fraction(row.lam), poly_coeffs(row.charpoly), lower, upper))
    if kind == "ray-convergent":
        distances = [row.distance for row in result.rows]
        checks["convergence"] = problem(
            result.supported and poly_coeffs(result.limit) == [1, 1, 0],
            "limit polynomial is not x^2 + x") + problem(
            all(a > b for a, b in zip(distances, distances[1:])),
            "distances do not decrease along the scales")
    else:
        exponents = result.divergence.exponents
        det = 1
        for magnitude in result.rows[-1].magnitudes:
            det *= magnitude
        checks["divergence"] = problem(
            not result.supported and all(
                abs(e - t) < 0.15 for e, t in zip(exponents, DIVERGENT_EXPONENTS)),
            f"exponents {exponents} not within 0.15 of {DIVERGENT_EXPONENTS}") + problem(
            abs(det - 1) < 1e-9, "eigenvalue magnitudes do not multiply to 1")
    return checks
