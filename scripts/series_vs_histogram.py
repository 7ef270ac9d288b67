#!/usr/bin/env python3
"""Compare generating-series coefficients d_k with sieve histogram frequencies.

    python3 scripts/series_vs_histogram.py --weight delta --x 10000000 --degree 8

Flags: --weight pattern|delta (default pattern), --pattern DSL for the binary
weight (default 1..1, ignored for delta), --x N (default 10000000), --degree K
(default 8) and --truncation P (default series.DEFAULT_TRUNCATION), read as
by the expdens CLI.
"""

import gc
import sys

from expdens.cli import UsageError, _parse, _report
from expdens.empirical import g_histogram
from expdens.patterns import parse_pattern
from expdens.series import DEFAULT_TRUNCATION, ExponentWeight, density_series

FLAGS = ("--weight", "--pattern", "--x", "--degree", "--truncation")


def main(argv: list[str]) -> int:
    try:
        config = _parse(["series", *argv], FLAGS)
    except UsageError as exc:
        return _report(exc, 2)
    if config is None:
        sys.stdout.write(__doc__)
        return 0
    x = 10**7 if config.x is None else config.x
    pattern = "1..1" if config.pattern is None else config.pattern
    if config.weight == "delta":
        w = ExponentWeight.excess()
    else:
        w = ExponentWeight.outside_pattern(parse_pattern(pattern))
    ds = density_series(w, config.degree, config.truncation or DEFAULT_TRUNCATION)
    gh = g_histogram(x, w, config.degree)
    print(f"{'k':>3} {'series d_k':>16} {'sieve freq':>16} {'difference':>12}")
    for k, c in enumerate(ds.coeffs):
        freq = gh.buckets[k] / x
        print(f"{k:>3} {c:>16.10f} {freq:>16.10f} {c - freq:>12.2e}")
    print(f"mass deficit {ds.mass_deficit:.3e}   sieve overflow "
          f"{gh.overflow / x:.3e}")
    return 0


if __name__ == "__main__":
    gc.freeze()  # the imports' objects live to exit; no collection need walk them
    sys.exit(main(sys.argv[1:]))
