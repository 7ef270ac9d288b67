#!/usr/bin/env python3
"""Compare generating-series coefficients d_k with sieve histogram frequencies.

    python3 scripts/series_vs_histogram.py --weight delta --x 10000000 --degree 8
"""

import argparse

from expdens.empirical import g_histogram
from expdens.patterns import parse_pattern
from expdens.series import DEFAULT_TRUNCATION, ExponentWeight, density_series


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weight", choices=("pattern", "delta"), default="pattern")
    ap.add_argument("--pattern", default="1..1",
                    help="pattern for the binary weight (ignored for delta)")
    ap.add_argument("--x", type=int, default=10**7)
    ap.add_argument("--degree", type=int, default=8)
    ap.add_argument("--truncation", type=int, default=DEFAULT_TRUNCATION)
    args = ap.parse_args()

    if args.weight == "delta":
        w = ExponentWeight.excess()
    else:
        w = ExponentWeight.outside_pattern(parse_pattern(args.pattern))
    ds = density_series(w, args.degree, args.truncation)
    gh = g_histogram(args.x, w, args.degree)
    print(f"{'k':>3} {'series d_k':>16} {'sieve freq':>16} {'difference':>12}")
    for k, c in enumerate(ds.coeffs):
        freq = gh.buckets[k] / args.x
        print(f"{k:>3} {c:>16.10f} {freq:>16.10f} {c - freq:>12.2e}")
    print(f"mass deficit {ds.mass_deficit:.3e}   sieve overflow "
          f"{gh.overflow / args.x:.3e}")


if __name__ == "__main__":
    main()
