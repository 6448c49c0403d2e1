#!/usr/bin/env python3
"""Quantitative eigenvector estimate along a ray.

For the triangle matrix and the word T1 T2 T3, tabulates the sup-distance
between the leading left eigenvector (best ray representative) and its
two-term limit shape p_1 e_1^T Omega' + omega'_21^{-1} e_2^T Omega', next
to the explicit upper bound 2^K p_max^(K-2) ||Omega'||^(K-1) /
(p_min^K min_gamma^K), for Omega' = k * Omega.
"""

import sys

import mpmath as mp

from penner import IntersectionMatrix, TwistWord, eigenvector_asymptotics
from penner.cli import ArgumentParser, attach_list_values, digits_arg, parse_ints, run_command
from penner.errors import ValidationError


def main() -> int:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--scales", default="1,2,4,8,16,32,64")
    ap.add_argument("--digits", type=digits_arg, default=30)
    args = ap.parse_args(attach_list_values(sys.argv[1:]))

    omega = IntersectionMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    word = TwistWord((1, 2, 3), (1, 1, 1))
    scales = parse_ints(args.scales)
    if not scales:
        raise ValidationError("need at least one scale")
    # every row first, so that bad input prints no partial table
    rows = [(k, eigenvector_asymptotics(omega, word, k=k, digits=args.digits))
            for k in scales]
    print(f"{'k':>5}  {'measured lhs':>14}  {'bound rhs':>12}")
    for k, res in rows:
        print(f"{k:>5}  {mp.nstr(res.lhs, 6):>14}  {mp.nstr(res.rhs, 6):>12}")
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
