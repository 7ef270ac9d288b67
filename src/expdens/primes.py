"""Prime sieves and a primality test.

numpy-backed Eratosthenes sieves, segmented above a threshold so that large
limits never allocate one giant boolean block, and a deterministic
Miller-Rabin test for validating individual primes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Allocation guard: no sieve or count covers more than this many integers.
DEFAULT_SIEVE_BUDGET = 10**8
SEGMENT_SIZE = 1 << 22
_ONE_SHOT_LIMIT = 10**7
# pi(x) < RS_UPPER * x / ln x for all x > 1; pi(x) > x / ln x for x >= 17
# (Rosser and Schoenfeld, 1962).
RS_UPPER = 1.25506
# The first 13 primes as Miller-Rabin bases decide primality exactly for every
# n below _MR_EXACT_BELOW (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


class ResourceBudgetError(RuntimeError):
    """A sieve or count was requested beyond the configured memory budget."""


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending int64."""

    limit: int
    primes: np.ndarray


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Exact for n < 3.3e24; larger n raise ValueError rather than risk a
    probabilistic answer.
    """
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large for the deterministic primality test")
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        y = pow(b, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _check_budget(limit: int) -> None:
    if limit > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(
            f"sieve limit {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}"
        )


def _sieve_block(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def prime_segments(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending arrays of primes that together cover [2, limit].

    Small limits come back as a single block; large ones are produced segment
    by segment so peak memory stays bounded by ``SEGMENT_SIZE``.
    """
    if limit < 2:
        return
    _check_budget(limit)
    if limit <= _ONE_SHOT_LIMIT:
        yield _sieve_block(limit)
        return
    s = max(math.isqrt(limit), 2)
    base = _sieve_block(s)
    yield base
    lo = s + 1
    while lo <= limit:
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                flags[start - lo :: p] = False
        seg = np.flatnonzero(flags).astype(np.int64)
        seg += lo
        yield seg
        lo = hi


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    _check_budget(limit)
    if limit <= _ONE_SHOT_LIMIT:
        return PrimeTable(limit, _sieve_block(limit))
    parts = list(prime_segments(limit))
    return PrimeTable(limit, np.concatenate(parts))
