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

Exit codes: 0 success, 1 standard output closed early, 2 invalid input,
3 violated mathematical precondition, 4 exhausted search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, NoReturn, Optional, Sequence, Tuple

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
    scale,
    twist_product,
    validate_omega,
)
from .errors import BudgetError, PreconditionError, ValidationError
from .factor import degree_of_pf_root
from .recipe import run_recipe
from .graphs import graph_of, spanning_tree_tour
from .spectral import (
    DEFAULT_DIGITS,
    char_poly_exact,
    complexity,
    poly_str,
    spectral_report,
    twist_charpoly,
)


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
    n = data.get("n", omega.n)
    if type(n) is not int:  # not a float, a string or a bool
        raise ValidationError(f'"n" must be an integer, got {n!r}')
    if n != omega.n:
        raise ValidationError(f"omega file declares n = {n} but has {omega.n} rows")
    return omega


def parse_ints(raw: str) -> Tuple[int, ...]:
    """A comma-separated integer list; spaces around an item are ignored.
    ``""`` and ``","`` are the empty list; any other empty item, or an item
    that is not one integer, is invalid input."""
    items = [x.strip() for x in raw.split(",")]
    if not any(items):
        return ()
    try:
        return tuple(map(int, items))
    except ValueError:
        raise ValidationError(
            f"expected a comma-separated integer list, got {raw!r}") from None


#: The options whose value is a comma-separated integer list.
LIST_OPTIONS = ("--gamma", "--powers", "--scales")


def attach_list_values(argv: Sequence[str]) -> List[str]:
    """``argv`` with each ``--gamma -1,2`` written ``--gamma=-1,2``, and so
    for every option in ``LIST_OPTIONS``.  argparse reads a separate value
    such as ``-4,4`` as an unknown option and reports a missing value, so
    the list would never reach the library's own validation."""
    out: List[str] = []
    for item in argv:
        if out and out[-1] in LIST_OPTIONS and item[:1] == "-" and item[1:2].isdigit():
            out[-1] += "=" + item
        else:
            out.append(item)
    return out


def word_from_args(args) -> TwistWord:
    gamma = parse_ints(args.gamma)
    powers = parse_ints(args.powers) if args.powers is not None else (1,) * len(gamma)
    return TwistWord(gamma, powers)


#: The range of ``--digits``; far above it mpmath runs out of memory or overflows.
MIN_DIGITS, MAX_DIGITS = 5, 10_000


def digits_arg(raw: str) -> int:
    """``--digits`` value: an integer from ``MIN_DIGITS`` to ``MAX_DIGITS``;
    anything else is a usage error (exit 2)."""
    try:
        digits = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value must be an integer, got {raw!r}") from None
    if digits < MIN_DIGITS:
        raise argparse.ArgumentTypeError(f"value must be at least {MIN_DIGITS}, got {digits}")
    if digits > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"value must be at most {MAX_DIGITS}, got {digits}")
    return digits


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
    degree, minpoly, fz = degree_of_pf_root(report)
    payload = {
        "charpoly": poly_str(report.charpoly),
        "rank": report.rank,
        "unit_exponent": report.unit_exponent,
        "reduced": poly_str(report.reduced),
        "complexity": complexity(report.reduced),
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
    result = run_recipe(omega, word, k_max=args.k_max, window=args.window,
                        digits=args.digits)
    scaled_word = [(i, result.k_star * p)  # leftmost factor first
                   for i, p in zip(reversed(word.gamma), reversed(word.powers))]
    word_str = " ".join(f"T{i}^{p}" for i, p in scaled_word)
    payload = {
        "k_star": result.k_star,
        "rank": result.rank,
        "degree": result.degree,
        "lambda": _nstr(result.lam, args.digits),
        "minpoly": poly_str(result.minpoly),
        "window": result.window,
        "word": [[i, p] for i, p in scaled_word],
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
    scales = parse_ints(args.scales) if args.scales is not None else (4, 8, 16, 32)
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


#: The largest ``catalog degrees --genus`` and ``--punctures``: the degree
#: sets list every degree up to the Teichmueller dimension, 1 MB of JSON at 10,000.
MAX_SURFACE = 10_000


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
    # degrees, the one action left that argparse admits
    if max(args.genus, args.punctures) > MAX_SURFACE:
        raise ValidationError(f"genus and punctures must be at most {MAX_SURFACE}")
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

    def charpoly_modulo_a_prime():
        omega = scale(catalog_get("S43-max").omega, 3)
        tour = spanning_tree_tour(graph_of(omega), root=1)
        word = TwistWord(tour, (1,) * len(tour))
        return twist_charpoly(omega, word) == char_poly_exact(twist_product(omega, word))

    check("characteristic polynomial modulo a prime", charpoly_modulo_a_prime)
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

class ArgumentParser(argparse.ArgumentParser):
    """An ``argparse.ArgumentParser`` that reports a rejected command line
    as :func:`run_command` reports a package error: one ``error: ...`` line
    on stderr, exit 2.  ``add_subparsers`` builds the subcommand parsers
    from this class too, and the experiment scripts use it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"error: {message}\n")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
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
        p.add_argument("--digits", type=digits_arg, default=DEFAULT_DIGITS,
                       help=f"working precision, {MIN_DIGITS} to {MAX_DIGITS} decimal digits")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if scales:
            p.add_argument("--scales", default=None,
                           help="comma-separated scale factors (default 4,8,16,32)")
        if budget:
            p.add_argument("--k-max", type=int, default=256, dest="k_max",
                           help="largest scale factor to try")
            p.add_argument("--window", type=int, default=3,
                           help="required number of consecutive successful scales")

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
    p_catalog.add_argument("--genus", type=int, default=2,
                           help=f"genus or crosscaps for `degrees`, at most {MAX_SURFACE}")
    p_catalog.add_argument("--punctures", type=int, default=0,
                           help=f"punctures for `degrees`, at most {MAX_SURFACE}")
    p_catalog.add_argument("--json", action="store_true")
    p_catalog.set_defaults(func=cmd_catalog)

    p_self = sub.add_parser("selftest", help="quick internal checks")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def run_command(command: Callable[[], int]) -> int:
    """``command()``, or, when it raises a package error, that error on one
    stderr line and its exit code: 2 invalid input or an unreadable file, 3
    violated mathematical precondition, 4 exhausted search budget.

    A reader that closes standard output early (``penner ... | head``) ends
    the command with exit code 1 and no message.  Standard output is then
    pointed at ``os.devnull``, so that the flush at exit, which would raise
    ``BrokenPipeError`` again, has somewhere to go (the recipe of Python's
    ``signal`` documentation)."""
    try:
        code = command()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValidationError, OSError) as e:
        error, code = e, 2
    except PreconditionError as e:
        error, code = e, 3
    except BudgetError as e:
        error, code = e, 4
    print(f"error: {error}", file=sys.stderr)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        attach_list_values(sys.argv[1:] if argv is None else argv))
    return run_command(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
