"""Density series: coefficients d_0..d_K of sum_k d_k z^k, each bracketed.

For a prime-independent exponent weight w, g(n) = sum over (p, alpha) in the
factorization of n of w(alpha) is additive over prime powers, and d_k is the
natural density of {n : g(n) = k}.  The generating identity is a product over
all primes of local factors

    F(p; z) = (1 - 1/p) (1 + sum_{i >= 1} z^w(i) p^-i)
            = 1 - sum_{t >= 2} (z^w(t-1) - z^w(t)) p^-t        (w(0) = w(1) = 0)

reduced mod z^(K+1), a ring homomorphism that loses nothing below degree K.
Each full factor is 1 at z = 1, so the d_k sum to 1 over all k, and
``mass_deficit`` = 1 - sum_{k <= K} d_k is the density of {n : g(n) > K}.

A weight is a few pieces, exponent intervals on which w is constant or rises
by one per exponent.

``density_series`` makes one call of the Euler-product engine of ``euler``.
d_0 is the density of the induced pattern, from the same exact product of
a_0 = 1 - delta(p) over the primes up to 1000 and the same table as
``density()``, whatever P is.  For k >= 1 only the primes p <= P0 =
min(1000, P) get rows of their own: every row a_k of F(p; z) is an exact
integer quotient (``_local_polys``), and ``_log_series`` takes the log of
the row as a float series in z.  The engine adds the logs over p <= P0,
encloses the factors p > P0 per z-degree through the committed prime tails
``euler._TAIL_1000`` (plus the primes in (P0, 1000] when P < 1000), and
takes one exp of the series.  No prime above 1000 is sieved, so a P above
1000 changes no bracket.  Every d_k comes with ``lower`` and ``upper`` that
hold the true density, the tail beyond P0 and all float roundoff included.
Work is estimated from K and P0 before any sieving and capped at
``SERIES_WORK_CAP``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from operator import add, mul, sub

from . import euler
from ._record import record
from .euler import _U
from .patterns import (
    ExponentInterval,
    ExponentPattern,
    complement,
    min_forbidden,
    normalize_intervals,
)

# sieve_primes stays a module attribute: perfbench/trace_launch.py wraps it
# by name.
from .primes import RS_UPPER, ResourceBudgetError, _check_budget, sieve_primes  # noqa: F401

# Truncation prime when none is given, for the library, the CLI and scripts.
DEFAULT_TRUNCATION = 100_000
# Largest admitted work estimate, in float operations of a Python loop (about
# 50 ns each).  The rows cost pi(P0) (K + 9)^2: a row's log and majorant take
# about K^2 products per prime, and the 9 stands for the quotients and ratios;
# the engine's own series in 1/p and z cost about as much as 64 more rows.
# Nothing depends on P beyond P0 = 1000, so every P the sieve budget admits
# passes at K <= 190, and K = 200 at P >= 1000 does not.
SERIES_WORK_CAP = 10**7


class DivergentWeightError(ValueError):
    """Weight whose zero set forbids exponent 1; every coefficient vanishes."""


@record(frozen=True)
class ExponentWeight:
    """Prime-independent integer weight on exponents, piecewise linear.

    ``pieces`` holds ``(interval, slope, offset)`` with intervals that cover
    1, 2, ... in order, the last unbounded; weight(i) = slope * i + offset
    on each, with slope 0 or 1 and no weight below 0.
    """

    pieces: tuple[tuple[ExponentInterval, int, int], ...]

    def __post_init__(self):
        nxt = 1
        for iv, slope, offset in self.pieces:
            if nxt is None or iv.lo != nxt:
                raise ValueError(f"piece {iv} breaks the cover of 1, 2, ... in order")
            if slope not in (0, 1):
                raise ValueError("slopes must be 0 or 1")
            if slope * iv.lo + offset < 0:
                raise ValueError("weights must be >= 0")
            nxt = None if iv.hi is None else iv.hi + 1
        if nxt is not None:
            raise ValueError("the last piece must be unbounded")

    def weight(self, i: int) -> int:
        if i < 1:
            raise ValueError("exponents are >= 1")
        _, slope, offset = self.pieces[
            bisect_right(self.pieces, i, key=lambda piece: piece[0].lo) - 1
        ]
        return slope * i + offset

    def induced_pattern(self) -> ExponentPattern:
        """The allowed-exponent pattern {i : weight(i) = 0}."""
        ivs: list[tuple[int, int | None]] = []
        for iv, slope, offset in self.pieces:
            if slope == 0 and offset == 0:
                ivs.append((iv.lo, iv.hi))
            elif slope == 1 and -offset in iv:
                ivs.append((-offset, -offset))
        return normalize_intervals(ivs)

    @classmethod
    def zero(cls) -> "ExponentWeight":
        return cls(((ExponentInterval(1, None), 0, 0),))

    @classmethod
    def excess(cls) -> "ExponentWeight":
        """weight(i) = i - 1; g(n) counts exponent excess over squarefree."""
        return cls(((ExponentInterval(1, None), 1, -1),))

    @classmethod
    def outside_pattern(cls, pattern: ExponentPattern) -> "ExponentWeight":
        """Binary weight: 1 on exponents the pattern forbids, 0 on allowed ones."""
        pieces = [(iv, 0, 0) for iv in pattern.intervals]
        pieces += [(iv, 0, 1) for iv in complement(pattern).intervals]
        return cls(tuple(sorted(pieces, key=lambda piece: piece[0].lo)))

    @classmethod
    def threshold(cls, k: int) -> "ExponentWeight":
        """Binary weight: 1 exactly when the exponent is >= k."""
        if k < 1:
            raise ValueError("threshold needs k >= 1")
        return cls.outside_pattern(normalize_intervals([(1, k - 1)] if k > 1 else []))


@record(frozen=True)
class DensitySeries:
    """d_0..d_K, each with a bracket lower[k] <= d_k <= upper[k].

    ``coeffs[k]`` is the point value of d_k, clamped into its bracket.
    ``mass_deficit`` = 1 - sum(coeffs), the density of {n : g(n) > K}.
    """

    coeffs: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    truncation_prime: int
    mass_deficit: float

    def __post_init__(self):
        if not len(self.lower) == len(self.upper) == len(self.coeffs):
            raise ValueError("every coefficient needs a bracket")
        if any(c < lo or c > hi for c, lo, hi in zip(self.coeffs, self.lower, self.upper)):
            raise ValueError("series coefficients must lie in their brackets")
        if any(c < -1e-12 for c in self.coeffs):
            raise ValueError("series coefficients must be nonnegative up to roundoff")
        # Only the brackets are proven, so only their lower ends must sum to
        # at most 1; fsum rounds correctly, so that sum stays <= 1.0.
        if math.fsum(self.lower) > 1.0:
            raise ValueError("series coefficient brackets must sum to at most 1")


def _row_exponents(w: ExponentWeight, K: int) -> list[tuple[int, ...]]:
    """Exponents e_0 < e_1 < ... of each row of F(p; z), for ``_local_polys``.

    Entry 0 gives delta(p) = 1 - a_0 = sum_j (-1)^j p^-e_j, from the induced
    pattern as in ``euler._delta_exponents``; entry k = 1..K gives
    a_k = (1 - 1/p) sum over i with w(i) = k of p^-i in the same form.  A
    constant piece [lo, hi] of weight k adds the block [lo, hi] to that set,
    and a slope-1 piece adds the one i of weight k if it has one; each
    maximal block [lo, hi] gives p^-lo - p^-(hi+1).  Weights above K are
    left out.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    blocks: list[list[tuple[int, int | None]]] = [[] for _ in range(K + 1)]
    for iv, slope, offset in w.pieces:
        if slope == 0:
            if 1 <= offset <= K:
                blocks[offset].append((iv.lo, iv.hi))
            continue
        top = K if iv.hi is None else min(K, iv.hi + offset)
        for k in range(max(1, iv.lo + offset), top + 1):
            blocks[k].append((k - offset, k - offset))
    rows = [euler._interval_exponents(normalize_intervals(b).intervals) for b in blocks[1:]]
    return [euler._delta_exponents(w.induced_pattern()), *rows]


def _local_polys(primes, exps: list[tuple[int, ...]]) -> list[list[tuple[int, int]]]:
    """(A_k, D_k) with a_k = A_k / D_k, k = 0..K, the rows of F(p; z) for
    each of the ascending ``primes``.

    ``exps`` is ``_row_exponents``; each row is the exact quotient of
    ``euler._delta_quotients``, which drops the terms p^-e <= 2^-1100.
    """
    if primes and primes[0] < 2:
        raise ValueError("p must be a prime >= 2")
    rows = [zip(*euler._delta_quotients(primes, e)) if e else [(0, 1)] * len(primes) for e in exps]
    return [[(den - num, den), *rest] for (num, den), *rest in zip(*rows)]


def _log_series(r: list[list[float]]) -> tuple[list[list[float]], list[list[float]]]:
    """log(1 + r(z)) and its majorant -log(1 - r(z)) per prime, for z^1..z^K.

    r[k] holds r_k = a_k / a_0 >= 0 of each prime for k = 1..K; r[0] is not
    read.  The coefficients b_k of log(1 + r) follow c_k = k b_k =
    k r_k - sum_{0<i<k} c_{k-i} r_i, and those of the majorant B the same
    recurrence with a plus sign, so that |b_k| <= B_k;
    both are divided by k at the end.  Each step rounds every term at most
    k + 2 times.  The work runs down the primes of a column at once; a
    column r_i that is 0 for every prime adds exact zeros and is skipped.
    Returns the b_k and the B_k, one list over the primes for each k.
    """
    K = len(r) - 1
    live = [i for i in range(1, K + 1) if any(r[i])]
    c: list[list[float]] = [[]]
    cm: list[list[float]] = [[]]
    for k in range(1, K + 1):
        acc = acc_m = [0.0] * len(r[k])
        for i in live:
            if i >= k:
                break
            acc = list(map(add, acc, map(mul, c[k - i], r[i])))
            acc_m = list(map(add, acc_m, map(mul, cm[k - i], r[i])))
        kr = [k * v for v in r[k]]
        c.append(list(map(sub, kr, acc)))
        cm.append(list(map(add, kr, acc_m)))
    return (
        [[v / k for v in c[k]] for k in range(1, K + 1)],
        [[v / k for v in cm[k]] for k in range(1, K + 1)],
    )


def _log_row_errors(K: int, rho: float) -> list[float]:
    """Relative error bounds of ``_log_series`` for k = 1..K, against its majorant.

    With each r_k within rho relative, induction on the recurrence (at most
    k + 2 roundings per step, the division by k included) gives
    |b~_k - b_k| <= eta_k B_k for the exact majorant B of the exact r, and
    B~_k >= (1 - eta'_k) B_k(r~) for the computed one, while
    B_k <= B_k(r~) / (1 - rho)^k because B_k is a polynomial of degree at
    most k in r with nonnegative coefficients.  The returned bound
    (1 + eta_k) / ((1 - eta'_k) (1 - rho)^k) - 1 thus covers both the error
    of b~_k and |b~_k| against the computed majorant, as
    ``_bracketed_product`` requires.
    """
    out: list[float] = []
    eta, eta_m = rho, 0.0
    for k in range(1, K + 1):
        if k > 1:
            g = (k + 2) * _U / (1 - (k + 2) * _U)
            eta = (eta * (1 + rho) * (1 + g) + rho + g * (1 + rho) + _U) / (1 - _U)
            eta_m = (eta_m * (1 + g) + g + _U) / (1 - _U)
        out.append(((1 + eta) / ((1 - eta_m) * (1 - rho) ** k) - 1) * (1 + 2.0**-40))
    return out


def _enclose(w: ExponentWeight, K: int, P0: int) -> euler._Bracket:
    """One engine call: d_0..d_K bracketed, with a log row per prime p <= P0.

    Degree 0: 1 - a_0 = delta(p) is the exact quotient
    ``euler._delta_quotients`` of the induced pattern, the one of the
    density, and the engine multiplies the a_0 of the primes up to 1000
    exactly, whatever P0 is; so d_0 is the pattern's ``density()`` bracket.
    Rows k >= 1: every a_k is an exact quotient A_k / p^E_k of the same
    kind, and r_k = a_k / a_0 one correctly rounded division of integers.
    The terms p^-e <= 2^-1100 that the quotients drop move a_0 by at most
    2^-1099 relative (a_0 >= 3/4), inside rho = u (1 + 2^-50), and each r_k
    by at most 2^-1099 absolute.  Those shifts and the roundings below the
    normal range change each log coefficient by at most (K + 1)^2 2^-1072 a
    prime, which over the at most 168 rows and the K that the work cap
    admits stays inside the engine's underflow allowance.

    Chunk sums: fsum rounds once, so a row k >= 1 within r of its majorant,
    and at most 1 + r times it, sums to within (r + u (1 + r)) / (1 - u) of
    the majorant's computed sum.
    """
    exps = _row_exponents(w, K)

    def quotients(primes: array) -> tuple[list[int], list[int]]:
        return euler._delta_quotients(primes, exps[0])

    def rows_of(primes: array) -> tuple:
        ratios = [
            [num * den / (d * a0) if num else 0.0 for num, d in rest]
            for (a0, den), *rest in _local_polys(primes, exps)
        ]
        b, bound = _log_series([[], *map(list, zip(*ratios))])
        return [math.fsum(row) for row in b], [math.fsum(row) for row in bound]

    rho = _U * (1 + 2.0**-50)
    rel = [(r + _U * (1 + r)) / (1 - _U) for r in _log_row_errors(K, rho)]
    neglog = euler._neglog_coeffs(euler._deficiency(w.weight, K))
    return euler._bracketed_product(quotients, rows_of, rel, neglog, P0)


def density_series(
    w: ExponentWeight,
    K: int = 8,
    truncation_prime: int = DEFAULT_TRUNCATION,
) -> DensitySeries:
    """d_0..d_K of the weight w, each with a proven bracket.

    The factors p <= P0 = min(1000, truncation_prime) are multiplied out as
    rows; the rest are enclosed through the committed table of
    sum_{p > 1000} p^-t, so a truncation_prime above 1000 changes no
    bracket.  Raises DivergentWeightError when w(1) > 0 (the induced pattern
    forbids exponent 1), since then d_0 and every finite-k density vanish.
    Raises ResourceBudgetError when truncation_prime exceeds the sieve
    budget, or when the work estimate (pi(P0) + 64) (K + 9)^2 for the rows
    and the engine (pi bounded by RS_UPPER x / ln x) exceeds
    SERIES_WORK_CAP.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if truncation_prime < 2:
        raise ValueError("truncation_prime must be >= 2")
    m = min_forbidden(w.induced_pattern())
    if m == 1:
        raise DivergentWeightError(
            "weight is positive at exponent 1; all finite coefficients are zero"
        )
    # P and K may have hundreds of digits: test both before any float of them
    _check_budget(truncation_prime)
    P = truncation_prime
    P0 = min(euler.MIN_TRUNCATION, P)
    work = (_pi_bound(P0) + 64) * (K + 9) ** 2 if K <= SERIES_WORK_CAP else math.inf
    if work > SERIES_WORK_CAP:
        raise ResourceBudgetError(
            f"series work estimate {work:.3g} (rows of degree {K} for the primes up "
            f"to {P0}) exceeds cap {SERIES_WORK_CAP:.3g}"
        )
    if m is None:
        # w is 0 on every exponent, so every factor is 1
        one = (1.0,) + (0.0,) * K
        return DensitySeries(one, one, one, P, 0.0)
    b = _enclose(w, K, P0)
    return DensitySeries(b.value, b.lower, b.upper, P, 1.0 - math.fsum(b.value))


def _pi_bound(x: int) -> float:
    """pi(x) < RS_UPPER x / ln x for x >= 2."""
    return RS_UPPER * x / math.log(x)

