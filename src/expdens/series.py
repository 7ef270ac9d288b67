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

A weight is a few pieces, each a lower end ``lo`` with a slope and an
offset: from its lo up to the next piece's, w is constant or rises by one
per exponent.

``density_series`` makes one call of the Euler-product engine of ``euler``
and passes it only the exponent rows of F(p; z) (``_row_exponents``): row 0
holds the exponents of delta(p) = 1 - a_0 and row k those of a_k, each
sum_j (-1)^j p^-e_j.  From those rows the engine builds everything: it
multiplies the exact quotients of the primes up to 1000 into a W-bit
fixed-point polynomial, derives the log of the factors beyond 1000 and
encloses each z-degree through the committed prime tails
``euler._TAIL_1000``, takes the exp of that series in integer interval
arithmetic, and returns each d_k as exact integers, (0, 0, e) when k is no
sum of the degrees of non-empty rows.  ``density_series`` rounds each d_k
outward to float once, into a bracket that holds the true density.  d_0 is
the density of the induced pattern, from the same head and table as
``density()``.  No prime above 1000 is sieved, so the truncation prime P
moves no bracket.  Work is estimated from K before any sieving and capped
at ``SERIES_WORK_CAP``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import cycle, repeat
from operator import itemgetter, lt

from . import euler
from ._record import record
from .patterns import ExponentPattern, complement, min_forbidden

# sieve_primes stays a module attribute: perfbench/trace_launch.py wraps it
# by name.
from .primes import ResourceBudgetError, _check_budget, sieve_primes  # noqa: F401

# Truncation prime when none is given, for the library, the CLI and scripts.
DEFAULT_TRUNCATION = 100_000
# Largest admitted work estimate, in operations of about 50 ns.  The head
# multiplies 168 polynomials of up to K + 1 coefficients, the exp of the tail
# series and the final sums cost about as much as 64 more, and the 9 stands
# for the quotients: (168 + 64) (K + 9)^2.  Nothing depends on P, so K <= 198
# passes at every P the sieve budget admits, and K = 199 does not.
SERIES_WORK_CAP = 10**7


class DivergentWeightError(ValueError):
    """Weight whose zero set forbids exponent 1; every coefficient vanishes."""


@record
class ExponentWeight:
    """Prime-independent integer weight on exponents, piecewise linear.

    ``pieces`` holds ``(lo, slope, offset)`` triples, ``lo`` strictly
    ascending from 1; a piece runs up to the next piece's ``lo``, and the
    last is unbounded.  weight(i) = slope * i + offset on each, with slope
    0 or 1 and no weight below 0.
    """

    pieces: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        los = list(map(itemgetter(0), self.pieces))
        if los[:1] != [1] or not all(map(lt, los, los[1:])):
            raise ValueError("piece lower ends must ascend strictly from 1")
        for lo, slope, offset in self.pieces:
            if slope not in (0, 1):
                raise ValueError("slopes must be 0 or 1")
            if slope * lo + offset < 0:
                raise ValueError("weights must be >= 0")

    def weight(self, i: int) -> int:
        if i < 1:
            raise ValueError("exponents are >= 1")
        _, slope, offset = self.pieces[bisect_right(self.pieces, i, key=itemgetter(0)) - 1]
        return slope * i + offset

    def induced_pattern(self) -> ExponentPattern:
        """The allowed-exponent pattern {i : weight(i) = 0}."""
        return ExponentPattern(_weight_ends(self, 0)[0])

    @classmethod
    def zero(cls) -> "ExponentWeight":
        return cls(((1, 0, 0),))

    @classmethod
    def excess(cls) -> "ExponentWeight":
        """weight(i) = i - 1; g(n) counts exponent excess over squarefree."""
        return cls(((1, 1, -1),))

    @classmethod
    def outside_pattern(cls, pattern: ExponentPattern) -> "ExponentWeight":
        """Binary weight: 1 on exponents the pattern forbids, 0 on allowed ones."""
        # the ends of the pattern, or of its complement when that starts at
        # 1, cut 1, 2, ... into pieces allowed and forbidden by turns
        forbids_one = min_forbidden(pattern) == 1
        cuts = complement(pattern).ends if forbids_one else pattern.ends
        return cls(tuple(zip(cuts, repeat(0), cycle((1, 0) if forbids_one else (0, 1)))))

    @classmethod
    def threshold(cls, k: int) -> "ExponentWeight":
        """Binary weight: 1 exactly when the exponent is >= k."""
        if k < 1:
            raise ValueError("threshold needs k >= 1")
        return cls.outside_pattern(ExponentPattern((1, k) if k > 1 else ()))


@record
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


def _weight_ends(w: ExponentWeight, K: int) -> list[tuple[int, ...]]:
    """For k = 0..K, the set {i : w(i) = k} as a pattern's ends.

    A piece runs from its lo up to the next piece's lo, its stop (None for
    the last).  A constant piece of weight k adds the block [lo, stop) to
    set k, and a slope-1 piece adds the one i of weight k if it has one.
    The pieces ascend, so the blocks of a set come in order, and a block
    that touches the one before it extends it.
    """
    sets: list[list[int]] = [[] for _ in range(K + 1)]
    stops = [*map(itemgetter(0), w.pieces[1:]), None]
    for (lo, slope, offset), stop in zip(w.pieces, stops):
        if slope == 0:
            blocks = [(offset, lo, stop)] if offset <= K else []
        else:
            top = K if stop is None else min(K, stop - 1 + offset)
            blocks = [(k, k - offset, k - offset + 1) for k in range(max(0, lo + offset), top + 1)]
        for k, start, end in blocks:
            ends = sets[k]
            if ends and ends[-1] == start:
                ends.pop()
            else:
                ends.append(start)
            if end is not None:
                ends.append(end)
    return [tuple(ends) for ends in sets]


def _row_exponents(w: ExponentWeight, K: int) -> tuple[tuple[int, ...], ...]:
    """Exponents e_0 < e_1 < ... of each row of F(p; z), the engine's description of it.

    Entry 0 gives delta(p) = 1 - a_0 = sum_j (-1)^j p^-e_j, from the induced
    pattern as in ``euler._delta_exponents``; entry k = 1..K gives
    a_k = (1 - 1/p) sum over i with w(i) = k of p^-i in the same form: the
    ends of that set, since each maximal block [lo, hi] of it gives
    p^-lo - p^-(hi+1).  Weights above K are left out.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    zero, *rows = _weight_ends(w, K)
    return (euler._delta_exponents(ExponentPattern(zero)), *rows)


def density_series(
    w: ExponentWeight,
    K: int = 8,
    truncation_prime: int = DEFAULT_TRUNCATION,
) -> DensitySeries:
    """d_0..d_K of the weight w, each with a proven bracket.

    The engine reads the rows of ``_row_exponents`` alone: it multiplies
    out the primes up to 1000 and encloses the rest through the committed
    table of sum_{p > 1000} p^-t, so truncation_prime is validated and
    reported but moves no bracket.  Each d_k is rounded outward once.
    Raises DivergentWeightError when w(1) > 0 (the induced pattern forbids
    exponent 1), since then d_0 and every finite-k density vanish.  Raises
    ResourceBudgetError when truncation_prime exceeds the sieve budget, or
    when the work estimate (168 + 64) (K + 9)^2 exceeds SERIES_WORK_CAP.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if truncation_prime < 2:
        raise ValueError("truncation_prime must be >= 2")
    if w.weight(1) > 0:
        raise DivergentWeightError(
            "weight is positive at exponent 1; all finite coefficients are zero"
        )
    # P and K may have hundreds of digits: test both before any float of them
    _check_budget(truncation_prime, "truncation prime")
    work = (168 + 64) * (K + 9) ** 2 if K <= SERIES_WORK_CAP else math.inf
    if work > SERIES_WORK_CAP:
        raise ResourceBudgetError(
            f"series work estimate {work} (degree {K}) exceeds cap {SERIES_WORK_CAP}"
        )
    rows = _row_exponents(w, K)
    if not rows[0]:
        # w is 0 on every exponent, so every factor is 1
        one = (1.0,) + (0.0,) * K
        return DensitySeries(one, one, one, truncation_prime, 0.0)
    out = euler._bracketed_product(rows)
    coeffs, lower, upper = zip(*(euler._round_out(*d) for d in out))
    return DensitySeries(coeffs, lower, upper, truncation_prime, 1.0 - math.fsum(coeffs))
