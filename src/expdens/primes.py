"""A prime sieve and a primality test.

One odd-only Eratosthenes sieve, ``_odd_flags(limit, lo)``, marks the odd
numbers of [lo, limit] in a bytearray with the odd primes up to
sqrt(limit), which it reads from its own flags of [1, sqrt(limit)]; the
recursion ends below 9, where no odd prime is needed.  ``prime_segments``
calls it once per window of at most ``SEGMENT_SIZE`` integers, so large
limits never allocate one giant block, and a deterministic Miller-Rabin
test validates individual primes.  Primes come back as ``array('q')``,
compact and sorted: it supports ``len``, slicing, ``tolist`` and
``bisect``, which the oracle uses to count the primes of a "p<=q" range
between two bounds.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from itertools import compress

from ._record import record

# Allocation guard: no sieve or count covers more than this many integers.
DEFAULT_SIEVE_BUDGET = 10**8
SEGMENT_SIZE = 1 << 22
# The first 13 primes as Miller-Rabin bases decide primality exactly for every
# n below _MR_EXACT_BELOW (Sorenson and Webster, 2015), and the bases 2, 7
# and 61 for every n below _MR_SMALL_BELOW (Jaeschke, Math. Comp. 61, 1993).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_MR_SMALL_BELOW = 4_759_123_141


class ResourceBudgetError(RuntimeError):
    """A sieve or count was requested beyond the configured memory budget."""


@record
class PrimeTable:
    """All primes up to ``limit``, ascending."""

    limit: int
    primes: array


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
    if n < 43 * 43:  # no factor up to 41: prime, and 61 is one the base 61 would fail
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 7, 61) if n < _MR_SMALL_BELOW else _MR_BASES:
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


def _check_budget(limit: int, what: str = "sieve limit") -> None:
    if limit > DEFAULT_SIEVE_BUDGET:
        raise ResourceBudgetError(f"{what} {limit} exceeds budget {DEFAULT_SIEVE_BUDGET}")


def _odd_flags(limit: int, lo: int = 1) -> bytearray:
    """flags[i] = 1 exactly when lo + 2i <= limit is prime, for odd lo >= 1.

    The odd primes p <= sqrt(limit), read from the flags of [1, sqrt(limit)],
    strike their odd multiples from max(p^2, lo) on, p entries apart.
    """
    n = len(range(lo, limit + 1, 2))
    flags = bytearray([1]) * n
    if lo == 1 and n:
        flags[0] = 0
    root = math.isqrt(limit)
    if root < 3:
        return flags
    for p in compress(range(1, root + 1, 2), _odd_flags(root)):
        start = max(p * p, (lo + p - 1) // p * p)
        start += p * (start % 2 == 0)  # the first odd multiple
        i = (start - lo) >> 1
        flags[i::p] = bytes(len(range(i, n, p)))
    return flags


def prime_segments(limit: int) -> Iterator[array]:
    """Yield ascending arrays of primes that together cover [2, limit].

    Each window of at most ``SEGMENT_SIZE`` integers is one ``_odd_flags``
    call, which finds the window's base primes itself, so none are kept
    here.  The first window starts at 3 and carries the 2, so every limit up
    to ``SEGMENT_SIZE`` comes back as a single block, and peak memory stays
    bounded by ``SEGMENT_SIZE`` at any limit.
    """
    if limit < 2:
        return
    _check_budget(limit)
    lo, primes = 3, array("q", [2])
    while True:
        hi = min(lo + SEGMENT_SIZE, limit + 1)
        primes.extend(compress(range(lo, hi, 2), _odd_flags(hi - 1, lo)))
        yield primes
        if hi > limit:
            return
        lo, primes = hi | 1, array("q")


def sieve_primes(limit: int) -> PrimeTable:
    """All primes <= limit."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    segments = prime_segments(limit)
    primes = next(segments)
    for seg in segments:
        primes.extend(seg)
    return PrimeTable(limit, primes)
