#!/usr/bin/env python3
"""Realize a stretch factor of maximal algebraic degree.

Runs the degree-realization scan on the rank-24 catalog matrix for the
genus-4 surface with 3 punctures: the word is a spanning-tree tour of the
intersection graph (contractible and visiting every curve), and the scan
finds the smallest scale k* at which the stretch factor has algebraic
degree 24 = rank(Omega), stable over a window of consecutive scales.
"""

import sys
import time

import mpmath as mp

from penner import TwistWord, graph_of, run_recipe
from penner.catalog import catalog_get
from penner.cli import ArgumentParser, digits_arg, run_command
from penner.graphs import spanning_tree_tour


def main() -> int:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--id", default="S43-max", help="catalog entry id")
    ap.add_argument("--digits", type=digits_arg, default=50)
    ap.add_argument("--k-max", type=int, default=256, dest="k_max")
    ap.add_argument("--window", type=int, default=3)
    args = ap.parse_args()

    entry = catalog_get(args.id)
    gamma = spanning_tree_tour(graph_of(entry.omega))
    word = TwistWord(gamma, (1,) * len(gamma))
    print(f"matrix {entry.id} ({entry.surface}), n = {entry.omega.n}, "
          f"rank = {entry.expected_rank}")
    print(f"tour word length {len(gamma)}: {gamma}")
    t0 = time.time()
    result = run_recipe(entry.omega, word, k_max=args.k_max,
                        window=args.window, digits=args.digits)
    dt = time.time() - t0
    print(f"k* = {result.k_star} (stable over {result.window} scales, "
          f"{dt:.1f} s)")
    print(f"degree = rank = {result.degree}")
    print(f"lambda = {mp.nstr(result.lam, 30)}")
    print(f"minimal polynomial: {result.minpoly}")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
