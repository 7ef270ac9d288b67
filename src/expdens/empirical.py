"""Brute-force counting oracle: classify the factorization of every n <= x.

Independent of the product code path on purpose: densities proved as limits
are checked here against exact counts at finite x.  One segment walk serves
every count: each multiple of each prime power p^e <= x gains the change in
weight from exponent e-1 to e, so every n ends with the weight of its exact
exponents and nothing is divided.  The single prime factor above sqrt(x)
that may remain (exponent necessarily 1) is found by comparing n with the
product of the prime powers seen.  Tallies are exact integers, so segment
order cannot change any result.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .euler import DensityEstimate
from .patterns import PrimeAwarePattern, contains, pattern_for_prime
from .primes import (
    DEFAULT_SIEVE_BUDGET,
    SEGMENT_SIZE,
    ResourceBudgetError,
    sieve_primes,
)
from .series import ExponentWeight


@dataclass(frozen=True)
class CountReport:
    x: int
    count: int
    ratio: float

    def __post_init__(self):
        if not 0 <= self.count <= self.x:
            raise ValueError("count must lie in [0, x]")


@dataclass(frozen=True)
class GHistogram:
    """Counts of n <= x by g(n) value: buckets[k] for k = 0..K plus overflow."""

    x: int
    buckets: tuple[int, ...]
    overflow: int

    def __post_init__(self):
        if sum(self.buckets) + self.overflow != self.x:
            raise ValueError("histogram must conserve the total count")


@dataclass(frozen=True)
class ComparisonReport:
    deviation: float
    lower: float
    upper: float
    tolerance: float
    passed: bool


def _check_x(x: int) -> None:
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(
            f"count bound {x} exceeds budget {DEFAULT_SIEVE_BUDGET}"
        )


def _dividing_primes(x: int, extra: set[int]) -> list[int]:
    base = set()
    if x >= 4:
        base = set(sieve_primes(math.isqrt(x)).primes.tolist())
    return sorted(base | {q for q in extra if q <= x})


def _histogram(
    x: int,
    plist: list[int],
    weight: Callable[[int, int], int],
    leftover_weight: int,
    K: int,
) -> np.ndarray:
    """Counts of n in [1, x] by min(g(n), K+1); g sums weight(p, exponent).

    The multiples of p^e gain min(weight(p, e), K+1) - min(weight(p, e-1),
    K+1), so the gains telescope to the capped weight at the exact exponent
    and nothing is divided.  A factor outside ``plist`` is a single prime
    above sqrt(x) with exponent 1; it adds ``leftover_weight`` and shows as
    a smooth part (the product of the p^e found) below n.
    """
    cap = K + 1
    leftover = min(leftover_weight, cap)
    buckets = np.zeros(cap + 1, dtype=np.int64)
    for lo in range(1, x + 1, SEGMENT_SIZE):
        hi = min(lo + SEGMENT_SIZE, x + 1)
        g = np.zeros(hi - lo, dtype=np.int64)
        smooth = np.ones(hi - lo, dtype=np.int64) if leftover else None
        for p in plist:
            if p >= hi:
                break
            pe, prev, e = p, 0, 1
            while pe < hi:
                cur = min(weight(p, e), cap)
                offset = -lo % pe
                if cur != prev:
                    g[offset::pe] += cur - prev
                if smooth is not None:
                    smooth[offset::pe] *= p
                pe, prev, e = pe * p, cur, e + 1
        if leftover:
            g[smooth < np.arange(lo, hi, dtype=np.int64)] += leftover
        buckets += np.bincount(np.minimum(g, cap), minlength=cap + 1)
    return buckets


def count_pattern(x: int, pap: PrimeAwarePattern) -> CountReport:
    """Count n in [1, x] whose every prime exponent is allowed by ``pap``."""
    _check_x(x)

    @functools.cache
    def forbidden(p: int, e: int) -> int:
        return int(not contains(pattern_for_prime(pap, p), e))

    # Leftover factors are primes > sqrt(x), never exceptional.
    buckets = _histogram(
        x,
        _dividing_primes(x, set(pap.exceptions)),
        forbidden,
        int(not contains(pap.default, 1)),
        0,
    )
    return CountReport(x, int(buckets[0]), int(buckets[0]) / x)


def count_periodic(x: int, ell: int) -> CountReport:
    """Count n in [1, x] whose every prime exponent is = 1 mod ell."""
    _check_x(x)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    # A leftover prime has exponent 1, which is = 1 mod ell.
    buckets = _histogram(
        x, _dividing_primes(x, set()), lambda p, e: int((e - 1) % ell != 0), 0, 0
    )
    return CountReport(x, int(buckets[0]), int(buckets[0]) / x)


def g_histogram(x: int, w: ExponentWeight, K: int) -> GHistogram:
    """Histogram of g(n) = sum of w(exponent) over the factorization, n <= x."""
    _check_x(x)
    if K < 0:
        raise ValueError("K must be >= 0")
    weight = functools.cache(w.weight)
    buckets = _histogram(
        x, _dividing_primes(x, set()), lambda p, e: weight(e), w.weight(1), K
    )
    return GHistogram(x, tuple(int(b) for b in buckets[: K + 1]), int(buckets[K + 1]))


def compare(
    est: DensityEstimate, rep: CountReport, tolerance: float
) -> ComparisonReport:
    """Finite-x deviation of a count ratio from a density estimate.

    The tolerance is the caller's policy; limits proved with no convergence
    rate admit no rigorous finite-x bound.
    """
    deviation = rep.ratio - est.value
    return ComparisonReport(
        deviation=deviation,
        lower=est.lower,
        upper=est.upper,
        tolerance=tolerance,
        passed=abs(deviation) <= tolerance,
    )
