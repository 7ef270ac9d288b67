"""Exact counting oracle: how many n <= x carry each exponent pattern or g value.

Independent of the product code path on purpose: densities proved as limits
are checked here against exact counts at finite x, and nothing here uses
``euler``.  Every count is a weight g(n) = sum of rule(e) over the prime
powers p^e exactly dividing n, tallied as min(g(n), K + 1); a pattern
count is the K = 0 case with rule(e) = [e forbidden].

The tally is a convolution over powerful numbers.  With z^w cut at degree K,
f(n) = z^g(n) is multiplicative, and every rule gives exponent 1 the weight
0 or a weight above K, so f(p) is 1 or 0.  Write f = b * h with b(p^e) =
f(p) for e >= 1: b(n) = 1 when every prime factor of n allows exponent 1.
Then h(p^e) = f(p^e) - f(p) f(p^(e-1)), so h(p) = 0 for every prime, and
sum_{n <= x} f(n) = sum_m h(m) B(floor(x / m)) with B(v) = sum_{n <= v} b(n),
over the powerful m <= x with h(m) != 0 (Golomb 1970; Bateman and Grosswald
1958).  A depth-first enumeration over the primes up to sqrt(x) visits
O(sqrt(x)) of them in exact integers.  Most of them are leaves, nodes with
no children, which add only h(m) B(floor(x / m)): a node sums B over its
leaf children per distinct local term h(p^e) and multiplies each sum by its
own h(m) h(p^e) once.  Integer addition and multiplication distribute
exactly, so the counts are those of one product per child.

B(v) is v when every prime allows exponent 1 and 1 when none does.  The
flipped primes S, the exceptional primes whose exponent-1 rule differs
from the default's, change it by Legendre's recurrence on the quotients
v = floor(x / k) (Lagarias, Miller and Odlyzko, Math. Comp. 1985): one pass
per flipped prime up to sqrt(x), and one bisection of S's runs per pair
(k, j) for those above it, which divide each n <= x at most once.  A weight
with 1 <= w(1) <= K makes f(p) a power of z other than 1 and 0, so the
histogram refuses it, as ``density_series`` refuses any w(1) > 0.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, repeat
from operator import iadd

from ._record import record
from .patterns import PrimeAwarePattern, contains
from .primes import _check_budget, sieve_primes

# A rule maps an exponent e >= 1 to its weight.
Rule = Callable[[int], int]


@record
class CountReport:
    x: int
    count: int
    ratio: float

    def __post_init__(self):
        if not 0 <= self.count <= self.x:
            raise ValueError("count must lie in [0, x]")


@record
class GHistogram:
    """Counts of n <= x by g(n) value: buckets[k] for k = 0..K plus overflow."""

    x: int
    buckets: tuple[int, ...]
    overflow: int

    def __post_init__(self):
        if sum(self.buckets) + self.overflow != self.x:
            raise ValueError("histogram must conserve the total count")


@record
class ComparisonReport:
    deviation: float
    lower: float
    upper: float
    tolerance: float
    passed: bool


def _check_x(x: int) -> None:
    if x < 1:
        raise ValueError("x must be >= 1")
    _check_budget(x, "count bound")


def _local_terms(rule: Rule, K: int, top: int) -> list[tuple]:
    """h(p^e) for e = 2..top as (degree, coefficient) pairs mod z^(K+1).

    f(p^e) = z^rule(e), or 0 when rule(e) > K.  When rule(1) = 0, f(p) = 1
    and h(p^e) = f(p^e) - f(p^(e-1)); otherwise f(p) = 0 and h = f.
    """
    out: list[tuple] = []
    prev = rule(1)
    differ = prev == 0
    for e in range(2, top + 1):
        w = rule(e)
        h = {w: 1} if w <= K else {}
        if differ and prev <= K:
            h[prev] = h.get(prev, 0) - 1
        out.append(tuple((d, c) for d, c in h.items() if c))
        prev = w
    return out


def _each_p_times(values: list[int], p: int) -> Iterator[int]:
    """values[0] p times, then values[1] p times, and so on: values[i // p]."""
    return chain.from_iterable(map(repeat, values, repeat(p)))


def _quotient_table(
    x: int, allows_one: bool, flipped: list[Sequence[int]]
) -> tuple[list[int], list[int]]:
    """B on the quotients of x: small[v] = B(v) for v <= r = isqrt(x), and
    large[k] = B(x // k) for 1 <= k <= r.

    ``flipped`` holds S as ascending runs.  With ``allows_one``, b(n) = [no
    prime of S divides n] and each p in S up to r sets B(v) - B(v // p) from
    the old values (v descending); otherwise b(n) = [every prime of n is in
    S] and p sets B(v) + B(v // p) from the new values (v ascending, one
    block [p^i, p^(i+1)) at a time).  The primes of S above r divide each
    n <= x at most once, so together they move B(v) by -/+ the sum over the
    j <= v / (r + 1) with b(j) = 1 of #{p in S : r < p <= v / j}.
    """
    r = math.isqrt(x)
    quotients = [0] + [x // k for k in range(1, r + 1)]
    if allows_one:
        small, large = list(range(r + 1)), quotients[:]
    else:
        small, large = [0] + [1] * r, [0] + [1] * r
    for p in sorted(p for run in flipped for p in run[: bisect_right(run, r)]):
        t = r // p  # large[k * p] holds B(x // (k p)) for k <= t, small beyond
        if allows_one:
            large[1:] = [a - b for a, b in zip(large[1 : t + 1], large[p::p])] + [
                a - small[v // p] for a, v in zip(large[t + 1 :], quotients[t + 1 :])
            ]
            small[p:] = [a - b for a, b in zip(small[p:], _each_p_times(small[1:], p))]
            continue
        lo = p
        while lo <= r:
            block = small[lo : lo * p]
            small[lo : lo * p] = [
                a + b for a, b in zip(block, _each_p_times(small[lo // p :], p))
            ]
            lo *= p
        large[t + 1 :] = [
            a + small[v // p] for a, v in zip(large[t + 1 :], quotients[t + 1 :])
        ]
        while t:
            lo = t // p
            block = large[lo + 1 : t + 1]
            large[lo + 1 : t + 1] = [
                a + b for a, b in zip(block, large[(lo + 1) * p :: p])
            ]
            t = lo
    high = [(run, bisect_right(run, r)) for run in flipped]
    high = [(run, i) for run, i in high if i < len(run) and run[i] <= x]
    if high:
        ones = [j for j in range(1, r + 1) if small[j] != small[j - 1]]
        sign = -1 if allows_one else 1
        for k in range(1, r + 1):
            v = x // k
            js = ones[: bisect_right(ones, v // (r + 1))]
            large[k] += sign * sum(
                bisect_right(run, v // j) - i for j in js for run, i in high
            )
    return small, large


def _convolve(
    x: int, K: int, entries: list, terms: list, small: list[int], large: list[int]
) -> list[int]:
    """sum over nodes m of h(m) B(x // m), B from ``_quotient_table``.

    ``entries`` holds per prime (first power, [(p^e, i), ...]) sorted by
    first power, where h(p^e) = ``terms[i]``, so a node's children stop at
    the first prime whose smallest power overshoots x / m.  A child m p^e
    of entry j is a leaf, a node with no children, exactly when p^e times
    the next entry's first power exceeds x / m.  A leaf adds h(m) h(p^e)
    B(x // (m p^e)), so the node sums B over its leaves per distinct h and
    multiplies each nonzero sum by h(m) h once: integer sums, exact in any
    order.  Every other child reuses the node's h(m) h, made on first need;
    one that vanishes mod z^(K+1) is pruned with its subtree.
    """
    total = [0] * (K + 1)
    count = len(entries)
    r = len(small) - 1
    nexts = [first for first, _ in entries[1:]] + [x + 1]

    def times(c: list[int], h: tuple) -> list[int]:
        out = [0] * (K + 1)
        for d, a in h:
            for i in range(K + 1 - d):
                out[i + d] += a * c[i]
        return out

    def add(c: list[int], scale: int) -> None:
        for k, ck in enumerate(c):
            total[k] += ck * scale

    def visit(m: int, c: list[int], start: int) -> None:
        q = x // m
        add(c, large[m] if m <= r else small[q])
        sums = [0] * len(terms)
        products = [None] * len(terms)
        for j in range(start, count):
            first, powers = entries[j]
            if first > q:
                break
            below = q // nexts[j]  # a child with p^e above this is a leaf
            for pe, i in powers:
                if pe > q:
                    break
                if pe > below:
                    sums[i] += large[m * pe] if m * pe <= r else small[q // pe]
                    continue
                if products[i] is None:
                    products[i] = times(c, terms[i])
                if any(products[i]):
                    visit(m * pe, products[i], j + 1)
        for i, s in enumerate(sums):
            if s:
                add(times(c, terms[i]) if products[i] is None else products[i], s)

    visit(1, [1] + [0] * K, 0)
    return total


def _tally(
    x: int, K: int, default: Rule, runs: Sequence[tuple[Sequence[int], Rule]] = ()
) -> list[int]:
    """Counts of n in [1, x] by min(g(n), K + 1), K + 2 integers.

    ``runs`` pairs ascending exceptional primes with the rule they share;
    ``default`` rules every other prime.  Every rule gives exponent 1 the
    weight 0 or a weight above K.
    """
    r = math.isqrt(x)
    allows_one = default(1) == 0
    flipped = [run for run, rule in runs if (rule(1) == 0) != allows_one]
    small, large = _quotient_table(x, allows_one, flipped)
    rules = {p: rule for run, rule in runs for p in run[: bisect_right(run, r)]}
    # Rules hash by identity: one list of terms per rule object, and equal
    # terms share one number, whatever rule or exponent they come from.
    numbers: dict[tuple, int] = {}
    terms = functools.cache(
        lambda rule: [
            numbers.setdefault(h, len(numbers)) if h else None
            for h in _local_terms(rule, K, x.bit_length())
        ]
    )
    entries = []
    for p in sieve_primes(r).primes if r >= 2 else ():
        powers, pe = [], p
        for i in terms(rules.get(p, default)):
            pe *= p
            if pe > x:
                break
            if i is not None:
                powers.append((pe, i))
        if powers:
            entries.append((powers[0][0], powers))
    entries.sort(key=lambda entry: entry[0])
    total = _convolve(x, K, entries, list(numbers), small, large)
    return total + [x - sum(total)]


def count_pattern(x: int, pap: PrimeAwarePattern) -> CountReport:
    """Count n in [1, x] whose every prime exponent is allowed by ``pap``."""
    _check_x(x)

    def forbidden(pattern) -> Rule:
        return functools.cache(lambda e: int(not contains(pattern, e)))

    def joined(windows) -> Sequence[int]:
        # one array of a range's segments; listed keys, maybe past 2^63, stay a list
        windows = iter(windows)
        return functools.reduce(iadd, windows, next(windows, []))

    runs = pap.runs(math.isqrt(x))
    if any(contains(pattern, 1) != contains(pap.default, 1) for _, pattern in runs):
        # _tally reads a run that flips exponent 1 to x, the others to sqrt(x)
        runs = pap.runs(x)
    rules = [(joined(windows), forbidden(pattern)) for windows, pattern in runs]
    count = _tally(x, 0, forbidden(pap.default), rules)[0]
    return CountReport(x, count, count / x)


def count_periodic(x: int, ell: int) -> CountReport:
    """Count n in [1, x] whose every prime exponent is = 1 mod ell."""
    _check_x(x)
    if ell < 1:
        raise ValueError("ell must be >= 1")
    count = _tally(x, 0, lambda e: int((e - 1) % ell != 0))[0]
    return CountReport(x, count, count / x)


def g_histogram(x: int, w: ExponentWeight, K: int) -> GHistogram:
    """Histogram of g(n) = sum of w(exponent) over the factorization, n <= x.

    The weight must give exponent 1 the weight 0 or a weight above K.
    """
    _check_x(x)
    if K < 0:
        raise ValueError("K must be >= 0")
    rule = functools.cache(w.weight)
    if 1 <= rule(1) <= K:
        raise ValueError(
            f"w(1) = {rule(1)} lies in [1, K]: only w(1) = 0 or w(1) > K is counted"
        )
    buckets = _tally(x, K, rule)
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
