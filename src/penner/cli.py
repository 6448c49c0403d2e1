"""Command-line interface: it parses arguments, calls the library and
prints the answer.

Subcommands
-----------
* ``degree``  — exact characteristic polynomial, leading eigenvalue, and
  algebraic degree of a twist product.
* ``recipe``  — scan scale factors ``k`` until the twist product over
  ``k * omega`` has a stretch factor of algebraic degree equal to
  ``rank(omega)``, stably over a window of consecutive ``k``.
* ``limit``   — ray convergence/divergence experiment for a word along
  ``k * omega``.
* ``catalog`` — inspect the built-in matrix catalog and degree-set formulas.
* ``selftest``— quick internal consistency checks.

Exit codes: 0 success, 2 invalid input, 3 violated mathematical
precondition, 4 exhausted search budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, Tuple

import mpmath as mp

from .boundary import ray_convergence_experiment
from .catalog import (
    SurfaceSpec,
    catalog_get,
    catalog_ids,
    catalog_verify,
    degree_set,
    degree_set_plus,
    teich_dim,
)
from .core import (
    IntersectionMatrix,
    TwistWord,
    generator,
    twist_product,
    validate_omega,
)
from .errors import BudgetError, PreconditionError, ValidationError
from .factor import degree_of_pf_root
from .recipe import run_recipe
from .spectral import SINGLE_CURVE, check_digits, default_digits, poly_str, spectral_report


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def load_omega(path: str) -> IntersectionMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as e:
        # malformed JSON, non-UTF-8 bytes, an integer past Python's digit
        # limit, or nesting past the recursion limit
        raise ValidationError(f"cannot read omega file {path}: {e}") from None
    if (not isinstance(data, dict) or not isinstance(data.get("entries"), list)
            or not all(isinstance(row, list) for row in data["entries"])):
        raise ValidationError('omega file must be {"n": int, "entries": [[...]]}')
    omega = validate_omega(data["entries"])
    if "n" in data and data["n"] != omega.n:
        raise ValidationError(
            f'omega file declares n = {data["n"]} but has {omega.n} rows'
        )
    return omega


def parse_ints(raw: str) -> Tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.replace(" ", "").split(",") if x != "")
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {raw!r}")


def word_from_args(args) -> TwistWord:
    gamma = parse_ints(args.gamma)
    powers = parse_ints(args.powers) if args.powers else (1,) * len(gamma)
    return TwistWord(gamma, powers)


def digits_arg(raw: str) -> int:
    """``--digits`` value; below the minimum it is a usage error (exit 2)."""
    try:
        return check_digits(raw, "value")
    except ValidationError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _nstr(x, digits: int) -> str:
    return mp.nstr(x, digits, strip_zeros=False)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_degree(args) -> int:
    omega = load_omega(args.omega)
    word = word_from_args(args)
    digits = args.digits
    report = spectral_report(omega, word, digits=digits)
    if not report.is_pf:
        raise PreconditionError(SINGLE_CURVE if omega.n < 2 else (
            "twist product is not Perron-Frobenius: the intersection graph "
            "must be connected and the word must use every curve"
        ))
    degree, minpoly, fz = degree_of_pf_root(report)
    payload = {
        "charpoly": poly_str(report.charpoly),
        "rank": report.rank,
        "unit_exponent": report.unit_exponent,
        "reduced": poly_str(report.reduced),
        "complexity": report.complexity,
        "lambda": _nstr(report.pf_value, digits),
        "minpoly": poly_str(minpoly),
        "degree": degree,
        "factors": [
            {"poly": poly_str(f), "multiplicity": e} for f, e in fz.factors
        ],
    }
    _emit(args, payload, [
        f"char poly: {payload['charpoly']}",
        f"rank: {payload['rank']}  unit-root exponent: {payload['unit_exponent']}",
        f"reduced: {payload['reduced']}",
        f"complexity: {payload['complexity']}",
        f"lambda: {payload['lambda']}",
        f"minimal polynomial: {payload['minpoly']}",
        f"degree: {payload['degree']}",
    ])
    return 0


def cmd_recipe(args) -> int:
    omega = load_omega(args.omega)
    word = word_from_args(args)
    result = run_recipe(
        omega, word,
        k_max=args.k_max, window=args.window, digits=args.digits,
        crosscheck=args.check_powering,
    )
    word_str = " ".join(f"T{i}^{p}" for i, p in result.word)
    payload = {
        "k_star": result.k_star,
        "rank": result.rank,
        "degree": result.degree,
        "lambda": _nstr(result.lam, args.digits),
        "minpoly": poly_str(result.minpoly),
        "window": result.window,
        "word": [[i, p] for i, p in result.word],
    }
    _emit(args, payload, [
        f"k* = {result.k_star} (stable over {result.window} consecutive scales)",
        f"rank = degree = {result.degree}",
        f"lambda = {payload['lambda']}",
        f"minimal polynomial: {payload['minpoly']}",
        f"word: {word_str}",
    ])
    return 0


def cmd_limit(args) -> int:
    omega = load_omega(args.omega)
    word = word_from_args(args)
    scales = parse_ints(args.scales) if args.scales else (4, 8, 16, 32)
    table = ray_convergence_experiment(omega, word, scales, digits=args.digits)
    if table.supported:
        payload = {
            "supported": True,
            "limit": poly_str(table.limit),
            "rows": [
                {
                    "k": row.scale,
                    "lambda": _nstr(row.lam, 15),
                    "distance": _nstr(row.distance, 6),
                }
                for row in table.rows
            ],
        }
        lines = [f"limit polynomial: {payload['limit']}"] + [
            f"k = {r['k']:>6}: lambda = {r['lambda']}, distance = {r['distance']}"
            for r in payload["rows"]
        ]
    else:
        fit = table.divergence
        payload = {
            "supported": False,
            "exponents": list(fit.exponents),
            "constants": list(fit.constants),
        }
        lines = ["path not supported in the intersection graph; "
                 "eigenvalue magnitudes grow/decay as constant * k^exponent:"]
        lines += [
            f"  |eig_{i + 1}| ~ {c:.4f} * k^{e:.3f}"
            for i, (e, c) in enumerate(zip(fit.exponents, fit.constants))
        ]
    _emit(args, payload, lines)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {"ids": list(catalog_ids())}
        _emit(args, payload, list(catalog_ids()))
        return 0
    if args.action == "show":
        if not args.id:
            raise ValidationError("catalog show requires an id")
        entry = catalog_get(args.id)
        payload = {
            "id": entry.id,
            "surface": str(entry.surface),
            "n": entry.omega.n,
            "rank": entry.expected_rank,
            "bipartite": entry.bipartite,
            "teich_dim": teich_dim(entry.surface),
            "entries": [[str(x) for x in row] for row in entry.omega.entries],
            "notes": entry.notes,
        }
        _emit(args, payload, [
            f"id: {entry.id}",
            f"surface: {entry.surface}   Teichmueller dimension: {payload['teich_dim']}",
            f"curves: {entry.omega.n}   rank: {entry.expected_rank}"
            f"   bipartite: {entry.bipartite}",
            f"rank verified: {catalog_verify(entry)}",
            str(entry.omega),
            entry.notes,
        ])
        return 0
    if args.action == "degrees":
        surface = SurfaceSpec(
            orientable=(args.kind.upper() == "S"),
            genus=args.genus,
            punctures=args.punctures,
        )
        result = degree_set(surface)
        plus = degree_set_plus(surface)
        payload = {
            "surface": str(surface),
            "degree_sets": [sorted(s) for s in result.sets],
            "ambiguous": result.ambiguous,
            "degree_sets_plus": [sorted(s) for s in plus.sets],
        }
        lines = [f"surface: {surface}"]
        if result.ambiguous:
            lines.append("ambiguous case: two candidate degree sets")
        for s in result.sets:
            lines.append(f"degrees: {sorted(s)}")
        for s in plus.sets:
            lines.append(f"degrees (orientation double cover bound): {sorted(s)}")
        _emit(args, payload, lines)
        return 0
    raise ValidationError(f"unknown catalog action {args.action!r}")


def cmd_selftest(args) -> int:
    failures = 0
    checks = []

    def check(name, fn):
        nonlocal failures
        try:
            ok = bool(fn())
        except Exception as e:  # noqa: BLE001 - report, do not crash
            ok = False
            name = f"{name} ({e})"
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    omega3 = validate_omega([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    word3 = TwistWord((1, 2, 3), (1, 1, 1))

    check("elementary twist matrix", lambda: generator(omega3, 1) == (
        (1, 1, 1), (0, 1, 0), (0, 0, 1)))
    check("twist product", lambda: twist_product(omega3, word3) == (
        (1, 1, 1), (1, 2, 2), (2, 3, 4)))
    check("characteristic polynomial", lambda: poly_str(
        spectral_report(omega3, word3, digits=20).charpoly
    ) == "x^3 - 7*x^2 + 5*x - 1")
    check("catalog ranks", lambda: all(
        catalog_verify(catalog_get(i)) for i in catalog_ids()))
    check("degree pipeline", lambda: degree_of_pf_root(
        spectral_report(omega3, word3, digits=20))[0] == 3)
    return 1 if failures else 0


def _emit(args, payload: dict, lines: Sequence[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="penner",
        description="Exact twist-product linear algebra: stretch factors, "
                    "algebraic degrees, and boundary limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scales=False, budget=False):
        p.add_argument("--omega", required=True,
                       help='JSON file {"n": int, "entries": [[int|"p/q", ...], ...]}')
        p.add_argument("--gamma", required=True,
                       help="comma-separated curve indices (1-based)")
        p.add_argument("--powers", default=None,
                       help="comma-separated positive exponents (default: all 1)")
        p.add_argument("--digits", type=digits_arg, default=default_digits(),
                       help="working precision in decimal digits")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if scales:
            p.add_argument("--scales", default=None,
                           help="comma-separated scale factors (default 4,8,16,32)")
        if budget:
            p.add_argument("--k-max", type=int, default=256, dest="k_max",
                           help="largest scale factor to try")
            p.add_argument("--window", type=int, default=3,
                           help="required number of consecutive successful scales")
            p.add_argument("--check-powering", action="store_true",
                           help="cross-check the fast product against naive "
                                "repeated multiplication for k <= 3")

    p_degree = sub.add_parser("degree", help="degree of the stretch factor")
    common(p_degree)
    p_degree.set_defaults(func=cmd_degree)

    p_recipe = sub.add_parser("recipe", help="scan scales until degree == rank")
    common(p_recipe, budget=True)
    p_recipe.set_defaults(func=cmd_recipe)

    p_limit = sub.add_parser("limit", help="ray convergence experiment")
    common(p_limit, scales=True)
    p_limit.set_defaults(func=cmd_limit)

    p_catalog = sub.add_parser("catalog", help="inspect the matrix catalog")
    p_catalog.add_argument("action", choices=["list", "show", "degrees"])
    p_catalog.add_argument("id", nargs="?", default=None)
    p_catalog.add_argument("--kind", default="S", choices=["S", "N", "s", "n"],
                           help="surface kind for `degrees`")
    p_catalog.add_argument("--genus", type=int, default=2)
    p_catalog.add_argument("--punctures", type=int, default=0)
    p_catalog.add_argument("--json", action="store_true")
    p_catalog.set_defaults(func=cmd_catalog)

    p_self = sub.add_parser("selftest", help="quick internal checks")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (PreconditionError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except BudgetError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
