"""Brute-force counting oracle: factor every n <= x and tally.

Independent of the product code path on purpose: densities proved as limits
are checked here against exact counts at finite x.  Counting walks segments,
divides each prime out of a residue array to classify exact exponents, and
treats the single leftover prime factor above sqrt(x) (exponent necessarily
1) in one vector step.  Tallies are exact integers, so segment order cannot
change any result.
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


def _iter_exponent_events(rem: np.ndarray, lo: int, plist: list[int]):
    """Divide every prime in plist out of the segment residues.

    Yields (p, level, offsets) for each class of segment positions whose
    exact exponent of p is ``level``.  ``rem`` is mutated; afterwards any
    entry > 1 is a single prime factor outside plist with exponent 1.
    """
    hi = lo + rem.size
    for p in plist:
        start = max(p, ((lo + p - 1) // p) * p)
        if start >= hi:
            continue
        view = rem[start - lo :: p]
        view //= p
        divisible = view % p == 0
        yield p, 1, (start - lo) + np.flatnonzero(~divisible) * p
        offs = (start - lo) + np.flatnonzero(divisible) * p
        level = 2
        while offs.size:
            rem[offs] //= p
            still = rem[offs] % p == 0
            yield p, level, offs[~still]
            offs = offs[still]
            level += 1


def _dividing_primes(x: int, extra: set[int]) -> list[int]:
    base = set()
    if x >= 4:
        base = set(sieve_primes(math.isqrt(x)).primes.tolist())
    return sorted(base | {q for q in extra if q <= x})


def _count_allowed(
    x: int,
    plist: list[int],
    allowed: Callable[[int, int], bool],
    leftover_allowed: bool,
    segment_size: int,
) -> CountReport:
    """Count n in [1, x] with allowed(p, exponent) for every p in plist.

    ``leftover_allowed`` judges the single prime factor above sqrt(x) that
    may remain after plist is divided out; its exponent is always 1.
    """
    total = 0
    for lo in range(1, x + 1, segment_size):
        hi = min(lo + segment_size, x + 1)
        rem = np.arange(lo, hi, dtype=np.int64)
        ok = np.ones(hi - lo, dtype=bool)
        for p, level, offs in _iter_exponent_events(rem, lo, plist):
            if offs.size and not allowed(p, level):
                ok[offs] = False
        if not leftover_allowed:
            ok &= rem == 1
        total += int(np.count_nonzero(ok))
    return CountReport(x, total, total / x)


def count_pattern(
    x: int, pap: PrimeAwarePattern, *, segment_size: int = SEGMENT_SIZE
) -> CountReport:
    """Count n in [1, x] whose every prime exponent is allowed by ``pap``."""
    _check_x(x)
    plist = _dividing_primes(x, set(pap.exceptions))

    @functools.cache
    def is_allowed(p: int, level: int) -> bool:
        return contains(pattern_for_prime(pap, p), level)

    # Leftover factors are primes > sqrt(x), never exceptional.
    return _count_allowed(
        x, plist, is_allowed, contains(pap.default, 1), segment_size
    )


def count_periodic(
    x: int, ell: int, *, segment_size: int = SEGMENT_SIZE
) -> CountReport:
    """Count n in [1, x] whose every prime exponent is = 1 mod ell."""
    _check_x(x)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return _count_allowed(
        x,
        _dividing_primes(x, set()),
        lambda p, level: (level - 1) % ell == 0,
        True,  # a leftover prime has exponent 1, which is = 1 mod ell
        segment_size,
    )


def g_histogram(
    x: int,
    w: ExponentWeight,
    K: int,
    *,
    segment_size: int = SEGMENT_SIZE,
) -> GHistogram:
    """Histogram of g(n) = sum of w(exponent) over the factorization, n <= x."""
    _check_x(x)
    if K < 0:
        raise ValueError("K must be >= 0")
    plist = _dividing_primes(x, set())
    weight = functools.cache(w.weight)
    buckets = np.zeros(K + 2, dtype=np.int64)
    w1 = w.weight(1)
    for lo in range(1, x + 1, segment_size):
        hi = min(lo + segment_size, x + 1)
        rem = np.arange(lo, hi, dtype=np.int64)
        g = np.zeros(hi - lo, dtype=np.int64)
        for p, level, offs in _iter_exponent_events(rem, lo, plist):
            wl = weight(level)
            if wl and offs.size:
                g[offs] += wl
        if w1:
            g[rem > 1] += w1
        buckets += np.bincount(np.minimum(g, K + 1), minlength=K + 2)
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
