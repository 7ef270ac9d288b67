"""Exact counting oracle: how many n <= x carry each exponent pattern or g value.

Independent of the product code path on purpose: densities proved as limits
are checked here against exact counts at finite x, and nothing here uses
``euler``.  Every count is a weight g(n) = sum of rule(e) over the prime
powers p^e exactly dividing n, tallied as min(g(n), K + 1); a pattern
count is the K = 0 case with rule(e) = [e forbidden].

The tally is a convolution over powerful numbers.  With z^w cut at degree K,
f(n) = z^g(n) is multiplicative.  When the default rule gives exponent 1
weight 0, f = 1 * h with h(p^e) = f(p^e) - f(p^(e-1)), so h(p) = 0 for every
default prime and sum_{n <= x} f(n) = sum_m h(m) floor(x / m) over the m <= x
with h(m) != 0 (Golomb 1970; Bateman and Grosswald 1958).  When exponent 1
has weight above K, f(p) = 0 and f is itself enumerated, each m adding f(m).
Either way only the exponents where h changes enter, and the m are powerful
apart from exceptional primes whose exponent-1 rule differs from the
default.  A depth-first enumeration over the primes up to sqrt(x), and those
exceptional primes up to x, visits O(sqrt(x)) nodes in exact integers.

The segment walk ``_walk`` remains for the inputs the enumeration cannot
bound.  A weight with 1 <= rule(1) <= K makes f(p) a nonzero power of z that
is not 1, so neither form has powerful support.  Many exceptional primes that
flip exponent 1 multiply the node count by the squarefree products of those
primes; the count is bounded before any enumeration and above
``_NODE_BUDGET`` the walk, whose cost is linear in x, runs instead.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .euler import DensityEstimate
from .patterns import PrimeAwarePattern, contains
from .primes import (
    DEFAULT_SIEVE_BUDGET,
    SEGMENT_SIZE,
    ResourceBudgetError,
    sieve_primes,
)

if TYPE_CHECKING:
    import numpy as np

    from .series import ExponentWeight

# Largest node bound the enumeration may take on; larger bounds take the
# walk.  A unit of the bound cost 0.2 to 1 us, so the enumeration stays
# within about 1 s, the walk's time over 1e8 integers for `1..1` (1.2 s; 10
# s for `2..inf` with the primes to 30 flipped).  Without flipped primes the
# bound is at most 26 124, at x = 1e8.
_NODE_BUDGET = 1 << 20
# The powerful numbers up to y are u^2 v^3 with v squarefree, at most
# sum_v sqrt(y / v^3) <= zeta(3/2) sqrt(y) of them.
_ZETA_3_2 = 2.6124

# A rule maps an exponent e >= 1 to its weight.
Rule = Callable[[int], int]


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


def _walk(
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
    a smooth part (the product of the p^e found) below n.  It is the one
    user of numpy here, imported on the first walk.
    """
    import numpy as np

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


def _local_terms(rule: Rule, K: int, base_one: bool, top: int) -> list[tuple]:
    """h(p^e) for e = 1..top as (degree, coefficient) pairs mod z^(K+1).

    f(p^e) = z^rule(e), or 0 when rule(e) > K.  With ``base_one``,
    h(p^e) = f(p^e) - f(p^(e-1)) and f(p^0) = 1; otherwise h = f.
    """
    out: list[tuple] = []
    prev = 0
    for e in range(1, top + 1):
        w = rule(e)
        h = {w: 1} if w <= K else {}
        if base_one and prev <= K:
            h[prev] = h.get(prev, 0) - 1
        out.append(tuple((d, c) for d, c in h.items() if c))
        prev = w
    return out


def _within_budget(x: int, flipped: list[int]) -> bool:
    """Whether the enumeration's node bound stays within ``_NODE_BUDGET``.

    A node is a squarefree product a of ``flipped`` primes (those with
    h(p) != 0) times a powerful number up to x / a, so there are at most
    zeta(3/2) sum_a sqrt(x / a) nodes.  The sum stops as soon as it passes
    the budget, and each a adds at least zeta(3/2), so this costs at most
    ``_NODE_BUDGET`` / 2.6 steps.
    """
    bound = _ZETA_3_2 * math.sqrt(x)
    stack = [(1, 0)]
    while stack:
        a, start = stack.pop()
        for j in range(start, len(flipped)):
            b = a * flipped[j]
            if b > x:
                break
            bound += _ZETA_3_2 * math.sqrt(x / b)
            if bound > _NODE_BUDGET:
                return False
            stack.append((b, j + 1))
    return True


def _convolve(x: int, K: int, base_one: bool, entries: list[tuple]) -> list[int]:
    """sum over nodes m of h(m) (floor(x / m) with ``base_one``, else 1).

    ``entries`` holds per prime (first power, [(p^e, h(p^e)), ...]) sorted
    by first power, so a node's children stop at the first prime whose
    smallest power overshoots x / m.  A child whose product vanishes mod
    z^(K+1) is pruned with its subtree.
    """
    total = [0] * (K + 1)
    count = len(entries)

    def visit(m: int, c: list[int], start: int) -> None:
        q = x // m
        scale = q if base_one else 1
        for k, ck in enumerate(c):
            total[k] += ck * scale
        for j in range(start, count):
            first, powers = entries[j]
            if first > q:
                break
            for pe, h in powers:
                if pe > q:
                    break
                child = [0] * (K + 1)
                for d, a in h:
                    for i in range(K + 1 - d):
                        child[i + d] += a * c[i]
                if any(child):
                    visit(m * pe, child, j + 1)

    visit(1, [1] + [0] * K, 0)
    return total


def _tally(
    x: int, K: int, default: Rule, exceptions: Mapping[int, Rule]
) -> list[int]:
    """Counts of n in [1, x] by min(g(n), K + 1), K + 2 integers.

    ``default`` rules every prime not in ``exceptions``.  The enumeration
    runs when default(1) is 0 or above K and the node bound of the primes
    that flip exponent 1 is within budget; otherwise the walk runs.
    """
    primes = sieve_primes(math.isqrt(x)).primes.tolist() if x >= 4 else []
    w1 = default(1)
    base_one = w1 == 0
    if base_one or w1 > K:
        # Rules hash by identity: one list of terms per rule object.
        terms = functools.cache(
            lambda rule: _local_terms(rule, K, base_one, x.bit_length())
        )
        # Exceptional primes above sqrt(x) enter only when h(p) != 0.
        root = math.isqrt(x)
        flipped = sorted(
            p for p, rule in exceptions.items() if p <= x and terms(rule)[0]
        )
        if _within_budget(x, flipped):
            entries = []
            for p in set(primes).union(q for q in flipped if q > root):
                powers, pe = [], p
                for h in terms(exceptions.get(p, default)):
                    if pe > x:
                        break
                    if h:
                        powers.append((pe, h))
                    pe *= p
                if powers:
                    entries.append((powers[0][0], powers))
            entries.sort(key=lambda entry: entry[0])
            total = _convolve(x, K, base_one, entries)
            return total + [x - sum(total)]
    plist = sorted(set(primes).union(p for p in exceptions if p <= x))
    buckets = _walk(x, plist, lambda p, e: exceptions.get(p, default)(e), w1, K)
    return buckets.tolist()


def count_pattern(x: int, pap: PrimeAwarePattern) -> CountReport:
    """Count n in [1, x] whose every prime exponent is allowed by ``pap``."""
    _check_x(x)
    rules: dict[int, Rule] = {}

    def forbidden(pattern) -> Rule:
        if id(pattern) not in rules:
            rules[id(pattern)] = functools.cache(lambda e: int(not contains(pattern, e)))
        return rules[id(pattern)]

    exceptions = {p: forbidden(pat) for p, pat in pap.exceptions.items()}
    count = _tally(x, 0, forbidden(pap.default), exceptions)[0]
    return CountReport(x, count, count / x)


def count_periodic(x: int, ell: int) -> CountReport:
    """Count n in [1, x] whose every prime exponent is = 1 mod ell."""
    _check_x(x)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    count = _tally(x, 0, lambda e: int((e - 1) % ell != 0), {})[0]
    return CountReport(x, count, count / x)


def g_histogram(x: int, w: ExponentWeight, K: int) -> GHistogram:
    """Histogram of g(n) = sum of w(exponent) over the factorization, n <= x."""
    _check_x(x)
    if K < 0:
        raise ValueError("K must be >= 0")
    buckets = _tally(x, K, functools.cache(w.weight), {})
    return GHistogram(x, tuple(buckets[: K + 1]), buckets[K + 1])


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
