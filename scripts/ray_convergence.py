#!/usr/bin/env python3
"""Ray convergence and divergence experiments.

Runs three experiments along rays k * Omega:

1. The all-ones 3x3 triangle with the word T1 T2 T3: the deflated
   characteristic polynomials converge to x^2 + x (the characteristic
   polynomial of the restricted limit map).
2. A 4x4 matrix whose intersection graph is missing the edge 1-2, with the
   closed path (1,2,3,4) not supported: the four eigenvalue magnitudes split
   along powers of k and are fitted to constant * k^exponent.
3. The catalog entry Mr-5 with its spanning-tree tour from curve 1, at
   k = 16, 256 and 4096, where the leading eigenvalue reaches 7.9e28: the
   distances to the limit must fall, or the script exits with status 1.
"""

import sys

import mpmath as mp

from penner import (
    IntersectionMatrix,
    TwistWord,
    catalog_get,
    graph_of,
    ray_convergence_experiment,
)
from penner.cli import ArgumentParser, attach_list_values, digits_arg, parse_ints, run_command
from penner.graphs import spanning_tree_tour


def main() -> int:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--scales", default="4,8,16,32,64",
                    help="comma-separated scales for the convergent run")
    ap.add_argument("--digits", type=digits_arg, default=50)
    args = ap.parse_args(attach_list_values(sys.argv[1:]))
    scales = parse_ints(args.scales)

    omega3 = IntersectionMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    word3 = TwistWord((1, 2, 3), (1, 1, 1))
    tab = ray_convergence_experiment(omega3, word3, scales, digits=args.digits)
    print("== convergent run: triangle, word T1 T2 T3 ==")
    print(f"limit polynomial: {tab.limit}")
    for row in tab.rows:
        print(f"  k = {row.scale:>4}: lambda = {mp.nstr(row.lam, 12):<16} "
              f"distance to limit = {mp.nstr(row.distance, 6)}")

    div4 = IntersectionMatrix(
        ((0, 0, 1, 2), (0, 0, 1, 1), (1, 1, 0, 1), (2, 1, 1, 0))
    )
    word4 = TwistWord((1, 2, 3, 4), (1, 1, 1, 1))
    tab = ray_convergence_experiment(div4, word4, (16, 32, 64, 128),
                                     digits=args.digits)
    print()
    print("== divergent run: path (1,2,3,4) not supported (edge 1-2 missing) ==")
    for row in tab.rows:
        mags = ", ".join(mp.nstr(m, 6) for m in row.magnitudes)
        print(f"  k = {row.scale:>4}: |eigenvalues| = {mags}")
    print("fitted |eig_i| ~ constant * k^exponent:")
    for i, (e, c) in enumerate(zip(tab.divergence.exponents,
                                   tab.divergence.constants)):
        print(f"  slot {i + 1}: exponent {e:+.3f}, constant {c:.4f}")

    omega5 = catalog_get("Mr-5").omega
    tour = spanning_tree_tour(graph_of(omega5), root=1)
    tab = ray_convergence_experiment(omega5, TwistWord(tour, (1,) * len(tour)),
                                     (16, 256, 4096), digits=args.digits)
    print()
    print(f"== convergent run: Mr-5, spanning-tree tour {tour} ==")
    print(f"limit polynomial: {tab.limit}")
    for row in tab.rows:
        print(f"  k = {row.scale:>4}: lambda = {mp.nstr(row.lam, 12):<16} "
              f"distance to limit = {mp.nstr(row.distance, 6)}")
    dists = [row.distance for row in tab.rows]
    if not all(a > b for a, b in zip(dists, dists[1:])):
        sys.exit("the Mr-5 distances to the limit do not fall as k grows")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
