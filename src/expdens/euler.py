"""Euler products over primes with proven brackets.

The density of {n : every prime exponent is allowed} is an infinite
product of per-prime local factors

    F(p) = 1 - delta(p),  delta(p) = sum over forbidden [lo, hi] of
                          p^-lo - p^-(hi+1)

(the second term drops when hi is unbounded).  Every prime's delta, with
its own pattern or the default, is one exact integer quotient num / p^E
(``_delta_quotients``).

A density follows the default pattern at every prime but a finite set E
of exceptional primes, so it is the default's product times the finite
correction prod_{p in E} F_E(p) / F(p).  Both products of the correction
are taken exactly in fixed point, and the correction is the start of the
default's product.  That product is evaluated once, at P0 = 1000: the
factors of the primes p <= 1000 are multiplied exactly, as W-bit
fixed-point integers rounded outward at each step, and every prime above
1000 enters through -log F(p) = sum_t c_t p^-t, for exact integers c_t,
and the power sums T_t = sum_{p > 1000} p^-t:

    sum_{p > 1000} -log F(p) = sum_{t <= 64} c_t T_t + cut,

where the cut (the terms t > 64) is below 1e-170.  T_t does not depend on
the pattern.  ``_TAIL_1000`` holds T_t(1000) for t = 2..64 between two
adjacent floats, computed once from prime zeta at high precision and
checked by the tests.  So the sieve runs only to 1000, no zeta value is
computed at run time, and neither an exceptional prime nor a pinned
truncation prime moves the split.  The two ends of the log enclosure are
taken exactly in fixed point, exponentiated there with a counted error,
multiplied by the exact head and rounded outward to float once, so a
bracket is one or two ulp wide.  The published [lower, upper] holds the
true density with every error term and all float roundoff included
(Ettahri, Ramare and Surel, "Fast multi-precision computation of some
Euler products", Math. Comp. 2021; H. Cohen, "High precision computation
of Hardy-Littlewood constants", 1998; Brent and Zimmermann, "Modern
Computer Arithmetic", 2010, ch. 4).

The same engine, ``_bracketed_product``, serves the density series of
``series``: there each local factor is a polynomial in a second variable z,
cut at z^K.  Degree 0 is the density's bracket; for k >= 1 the log-sum, the
tail enclosure and the bracket run per z-degree in floating point, with one
exp of a series in z at the end; their split may be below 1000, and the
primes between it and 1000 are then added to T_t(1000).  ``density()`` is
its case K = 0.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import repeat

from ._record import record
from .patterns import (
    EMPTY_PATTERN,
    ExponentPattern,
    PrimeAwarePattern,
    complement,
    contains,
    min_forbidden,
    normalize_intervals,
    _PrimeRange,
)
from .primes import _check_budget, is_prime, prime_segments, sieve_primes

DEFAULT_TARGET_ERROR = 1e-8
# Smallest truncation prime, and the end of the exact head.  Beyond it the
# terms t > _SERIES_DEGREE of every tail are below 1e-170, and the tail
# enclosure is about 1e-19 wide.
MIN_TRUNCATION = 1000

# Degree at which power series in 1/p are cut.
_SERIES_DEGREE = 64
_FSUM_CHUNK = 1 << 16
# Unit roundoff of float64.
_U = 2.0**-53
# Below 1000, a T_t(P0) whose bound P0^(1-t)/(t-1) is at most _POWER_CUT
# keeps that bound; the others are ``_TAIL_1000`` plus the primes up to 1000.
_POWER_CUT = 2.0**-60
# Covers every result that underflows below the normal range and every term
# that ``_delta_quotients`` drops, summed over at most 1e8 primes and 10^4
# terms per prime.
_UNDERFLOW = 2.0**-1000
# Euler-Maclaurin summation for zeta_int: terms n < _EM_TERMS are summed
# directly, then the corrections with B_2 .. B_16; B_18 bounds the remainder.
# Each Bernoulli number is a (numerator, denominator) pair.
_EM_TERMS = 16
_BERNOULLI = (
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
)
# [lo_t, hi_t] for t = 2..64: two adjacent floats with
# lo_t <= T_t(1000) = sum_{p > 1000} p^-t <= hi_t, from P(t) - sum_{p <= 1000} p^-t
# with mpmath's prime zeta P at 40 + 3t digits.  tests/test_euler.py
# regenerates the table and checks it against a Moebius inversion of log zeta.
_TAIL_1000 = (
    (0.0001269897917609165, 0.00012698979176091653),
    (6.73103585358403e-08, 6.731035853584031e-08),
    (4.598951336162165e-11, 4.5989513361621654e-11),
    (3.502178948875813e-14, 3.5021789488758134e-14),
    (2.833469569598374e-17, 2.8334695695983746e-17),
    (2.3828278392800024e-20, 2.3828278392800027e-20),
    (2.0582708842361322e-23, 2.0582708842361325e-23),
    (1.8131349764718284e-26, 1.8131349764718287e-26),
    (1.6212315568187997e-29, 1.6212315568188e-29),
    (1.4667346393678526e-32, 1.466734639367853e-32),
    (1.339522996432001e-35, 1.3395229964320013e-35),
    (1.2328266029872387e-38, 1.232826602987239e-38),
    (1.1419484411175392e-41, 1.1419484411175393e-41),
    (1.0635290243024604e-44, 1.0635290243024605e-44),
    (9.951026950222047e-48, 9.951026950222048e-48),
    (9.348191666046256e-51, 9.348191666046257e-51),
    (8.812628198101401e-54, 8.812628198101403e-54),
    (8.333320093985673e-57, 8.333320093985674e-57),
    (7.901564014943757e-60, 7.901564014943758e-60),
    (7.51039090044641e-63, 7.510390900446411e-63),
    (7.154152570985872e-66, 7.154152570985873e-66),
    (6.828221211003198e-69, 6.828221211003199e-69),
    (6.528767387355914e-72, 6.528767387355915e-72),
    (6.252593680556179e-75, 6.25259368055618e-75),
    (5.997008333971572e-78, 5.9970083339715725e-78),
    (5.759728125230212e-81, 5.7597281252302125e-81),
    (5.538802866148937e-84, 5.538802866148938e-84),
    (5.332556110818556e-87, 5.332556110818557e-87),
    (5.139538149924381e-90, 5.139538149924382e-90),
    (4.958488417661442e-93, 4.958488417661443e-93),
    (4.788305180947256e-96, 4.788305180947257e-96),
    (4.628020914435308e-99, 4.628020914435309e-99),
    (4.47678215270324e-102, 4.476782152703241e-102),
    (4.3338328959508475e-105, 4.333832895950848e-105),
    (4.1985008570725226e-108, 4.198500857072523e-108),
    (4.070185996516788e-111, 4.070185996516789e-111),
    (3.94835091126587e-114, 3.9483509112658706e-114),
    (3.8325127357472705e-117, 3.832512735747271e-117),
    (3.7222362828320046e-120, 3.722236282832005e-120),
    (3.6171282075715116e-123, 3.617128207571512e-123),
    (3.516832018845308e-126, 3.5168320188453084e-126),
    (3.4210237974876096e-129, 3.42102379748761e-129),
    (3.3294085058559416e-132, 3.329408505855942e-132),
    (3.2417167947898086e-135, 3.241716794789809e-135),
    (3.157702230685278e-138, 3.1577022306852784e-138),
    (3.0771388788969107e-141, 3.077138878896911e-141),
    (2.9998191905728696e-144, 2.99981919057287e-144),
    (2.9255521488726815e-147, 2.925552148872682e-147),
    (2.8541616377293714e-150, 2.854161637729372e-150),
    (2.7854850022254723e-153, 2.785485002225473e-153),
    (2.719371774512392e-156, 2.7193717745123926e-156),
    (2.655682543216971e-159, 2.6556825432169716e-159),
    (2.5942879476081076e-162, 2.594287947608108e-162),
    (2.535067780567568e-165, 2.5350677805675684e-165),
    (2.4779101867245786e-168, 2.477910186724579e-168),
    (2.422710944055366e-171, 2.4227109440553664e-171),
    (2.369372818882542e-174, 2.3693728188825422e-174),
    (2.3178049855885453e-177, 2.3178049855885458e-177),
    (2.26792250352569e-180, 2.2679225035256902e-180),
    (2.2196458445981395e-183, 2.21964584459814e-183),
    (2.172900465837334e-186, 2.1729004658373343e-186),
    (2.127616422015805e-189, 2.1276164220158055e-189),
    (2.083728013964588e-192, 2.0837280139645883e-192),
)


class UnreachableTargetError(RuntimeError):
    """The requested bracket width is below what the enclosure can prove.

    ``best`` carries the estimate reached at the truncation prime.
    """

    def __init__(self, message: str, best: "DensityEstimate"):
        super().__init__(message)
        self.best = best


@record(frozen=True)
class BoundedValue:
    """A float with a proven absolute error bound."""

    value: float
    error: float


@record(frozen=True)
class LocalFactor:
    """Per-prime term of a density product; always in (0, 1]."""

    p: int
    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"local factor {self.value} outside (0, 1]")


@record(frozen=True)
class DensityEstimate:
    """A density value with a rigorous [lower, upper] bracket.

    The true density lies in [lower, upper], float roundoff included, and
    tail_logbound = log(upper / lower) is the bracket's width in log terms.
    value is the point estimate (the truncated product times the midpoint
    of the tail enclosure), clamped into the bracket.  For divergent
    products (density zero) all three are 0 and the flag is set.
    """

    value: float
    lower: float
    upper: float
    truncation_prime: int
    tail_logbound: float
    diverges_to_zero: bool = False

    def __post_init__(self):
        if not self.lower <= self.value <= self.upper:
            raise ValueError("bracket must satisfy lower <= value <= upper")
        if self.tail_logbound < 0.0:
            raise ValueError("tail_logbound must be >= 0")
        if self.diverges_to_zero and not (self.value == self.lower == self.upper == 0.0):
            raise ValueError("divergent estimates must be exactly zero")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def brackets_overlap(a: DensityEstimate, b: DensityEstimate) -> bool:
    """True when the two rigorous brackets share at least one point."""
    return a.lower <= b.upper and b.lower <= a.upper


# ---------------------------------------------------------------------------
# Zeta and prime-zeta constants


@lru_cache(maxsize=None)
def zeta_int(s: int) -> BoundedValue:
    """zeta(s) for integer s >= 2 by Euler-Maclaurin summation, in exact rationals.

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_{k=1..K} B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k) + R
    with N = 16 and K = 8.  For real s, |R| is at most the first omitted
    term (Edwards, "Riemann's Zeta Function", 6.4), below 1e-21.  The
    rational sum is rounded to float once, so the error bar is that term
    plus one ulp.  From s = 54 on, 0 < zeta(s) - 1 <= 2^(1-s) <= 2^-53, so
    the value is 1.0 within 2u and no sum is built.
    """
    if s < 2:
        raise ValueError("zeta_int requires s >= 2")
    if s >= 54:
        return BoundedValue(1.0, 2 * _U)
    from fractions import Fraction

    n_max = _EM_TERMS
    total = sum(Fraction(1, n**s) for n in range(1, n_max))
    total += Fraction(1, (s - 1) * n_max ** (s - 1)) + Fraction(1, 2 * n_max**s)
    rising = Fraction(s)  # s (s+1) ... (s+2k-2)
    factorial = 2  # (2k)!
    for k, bernoulli in enumerate(_BERNOULLI, start=1):
        term = Fraction(*bernoulli) * rising / (factorial * n_max ** (s + 2 * k - 1))
        if k < len(_BERNOULLI):
            total += term
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        factorial *= (2 * k + 1) * (2 * k + 2)
    value = float(total)
    return BoundedValue(value, 2 * _U * value + float(abs(term)) * (1 + 4 * _U))


def _all_primes_sum(den, ts: range) -> BoundedValue:
    """sum over all primes of 1 / den(p), whose series in 1/p has coefficient 1
    at each t <= 64 of ``ts`` and 0 at every other t <= 64.

    Primes up to ``MIN_TRUNCATION`` are summed directly, each term one
    correctly rounded division of integers and the fsum one more rounding,
    so 3u of the direct sum covers both.  The rest is the prime-zeta tail
    sum_{p > P} sum_t c_t p^-t, enclosed by ``_tail_enclosure`` exactly as
    the tail of a density, its cut covering the terms t > 64.
    """
    P = MIN_TRUNCATION
    direct = math.fsum([1 / den(p) for p in sieve_primes(P).primes.tolist()])
    coeffs = [float(t in ts) for t in range(_SERIES_DEGREE + 1)]
    sums = _tail_sums(_live_terms([coeffs]), P, {})
    lo, mid, hi = _tail_enclosure(coeffs, [0.0] * len(coeffs), P, sums)
    value = direct + mid
    error = max(hi - mid, mid - max(lo, 0.0)) + 3 * _U * direct
    return BoundedValue(value, error + _U * value + _UNDERFLOW)


@lru_cache(maxsize=None)
def _prime_zeta(s: int) -> BoundedValue:
    """sum over all primes of p^-s, s >= 2."""
    if s < 2:
        raise ValueError("prime zeta evaluated only for s >= 2")
    return _all_primes_sum(lambda p: p**s, range(s, s + 1))


def prime_sum(k: int) -> BoundedValue:
    """sum over all primes of 1 / (p^k - 1) = sum_{j >= 1} p^-jk, k >= 2."""
    if k < 2:
        raise ValueError("prime_sum requires k >= 2")
    return _all_primes_sum(lambda p: p**k - 1, range(k, _SERIES_DEGREE + 1, k))


# ---------------------------------------------------------------------------
# Local factors: delta(p) = 1 - F(p) as one exact integer quotient

# delta(p) drops its terms p^-e with p^e >= 2^_CAP_BITS.
_CAP_BITS = 1100


def _interval_exponents(ivs) -> tuple[int, ...]:
    """e_0 < e_1 < ... with sum_j (-1)^j p^-e_j = (1 - 1/p) sum_{i in ivs} p^-i.

    Each of the disjoint, non-adjacent intervals [lo, hi] gives
    p^-lo - p^-(hi+1), or p^-lo when unbounded.
    """
    return tuple(e for iv in ivs for e in ((iv.lo,) if iv.hi is None else (iv.lo, iv.hi + 1)))


@lru_cache(maxsize=None)
def _delta_exponents(pattern: ExponentPattern) -> tuple[int, ...]:
    """e_0 < e_1 < ... with delta(p) = sum_j (-1)^j p^-e_j under ``pattern``."""
    return _interval_exponents(complement(pattern).intervals)


def _delta_quotients(primes, exps: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(nums, dens), num / p^E = sum_j (-1)^j p^-e_j over p^e_j < 2^1100 per p of ``primes``.

    An e_j is kept when below c = ceil(1100 / (b - 1)), b the bit length
    of p; since p >= 2^(b - 1), p^c >= 2^1100.  The dropped terms alternate
    in sign and fall in magnitude, so they sum to at most the first, below
    2^-1100.  E is the last kept exponent, and den = p^E < 2^2200.  The
    primes ascend, so the cut is found once per bit length, on a slice, and
    a Horner step is one comprehension.
    """
    nums, dens = [], []
    i = 0
    while i < len(primes):
        b = primes[i].bit_length()
        j = bisect_left(primes, 1 << b, i)
        group, i = primes[i:j], j
        n = bisect_left(exps, -(-_CAP_BITS // (b - 1)))
        row = [min(n, 1)] * len(group)
        for k in range(1, n):
            step, sign = exps[k] - exps[k - 1], (-1 if k & 1 else 1)
            row = [num * p**step + sign for num, p in zip(row, group)]
        nums += row
        dens += map(pow, group, repeat(exps[n - 1] if n else 0))
    return nums, dens


def local_factor_interval(p: int, pattern: ExponentPattern) -> LocalFactor:
    """F(p) = (p^E - num) / p^E, one correctly rounded quotient."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    (num,), (den,) = _delta_quotients((p,), _delta_exponents(pattern))
    return LocalFactor(p, (den - num) / den)


# ---------------------------------------------------------------------------
# Deficiency series: 1 - F(p; z) as a polynomial in 1/p and z


def _deficiency(weight, K: int) -> tuple[tuple[int, ...], ...]:
    """Integers u with 1 - F(p; z) = sum_{t, k} u[t][k] p^-t z^k, t <= 64, k <= K.

    ``weight`` maps t >= 1 to its z-degree w(t), an int or bool; w(0) = 0.
    F(p; z) = (1 - 1/p) sum_{i >= 0} z^w(i) p^-i = 1 - sum_t (z^w(t-1) - z^w(t)) p^-t,
    so u[t][w(t-1)] += 1 and u[t][w(t)] -= 1 for degrees up to K.  A density
    is the case K = 0 with weight 1 on the forbidden exponents.
    """
    coef = [[0] * (K + 1) for _ in range(_SERIES_DEGREE + 1)]
    prev = 0
    for t in range(1, _SERIES_DEGREE + 1):
        cur = int(weight(t))
        if prev <= K:
            coef[t][prev] += 1
        if cur <= K:
            coef[t][cur] -= 1
        prev = cur
    return tuple(map(tuple, coef))


# bounded: a library caller may build many distinct patterns
@lru_cache(maxsize=256)
def _neglog_coeffs(
    delta: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
    """Coefficients of -log(1 - delta) in 1/p and z, truncated, and their error.

    delta[t][k] is the integer coefficient of p^-t z^k, with delta[0] = 0,
    as ``_deficiency`` gives it.  Returns ``(neglog, err)`` indexed [k][t],
    as tuples, since every call with the same delta shares them.  For
    A = 1 - delta = sum_t a_t p^-t, the identity x A' = A x (log A)' gives
    b_t = t [p^-t] log A as

        b_t = t a_t - sum_{0 < j < t} b_j a_{t-j},

    products of z-polynomials cut at z^K, in exact integers.  Each
    coefficient -b_t / t is one correctly rounded division, so it is within
    u of its own magnitude.
    """
    K = len(delta[0]) - 1
    # a_t = -delta_t for t >= 1, kept as its nonzero (degree, value) pairs
    terms = [[(k, -v) for k, v in enumerate(row) if v] for row in delta]
    b: list[list[int]] = [[0] * (K + 1)]
    for t in range(1, len(delta)):
        bt = [0] * (K + 1)
        for k, v in terms[t]:
            bt[k] += t * v
        for j in range(1, t):
            bj = b[j]
            if not any(bj):
                continue
            for d, v in terms[t - j]:
                for i in range(K + 1 - d):
                    bt[i + d] -= v * bj[i]
        b.append(bt)
    neglog = tuple(
        tuple(-b[t][k] / t if t else 0.0 for t in range(len(b))) for k in range(K + 1)
    )
    err = tuple(tuple(_U * abs(c) for c in row) for row in neglog)
    return neglog, err


# ---------------------------------------------------------------------------
# Fixed point: the small primes' factors and exp, rounded to float once

# Fraction bits of a fixed-point number: the integer X stands for X 2^-_W.
_W = 128
# floor(2^_W ln 2); tests/test_euler.py checks it against mpmath.
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF


def _fixed(x: float, up: bool) -> int:
    """x 2^_W rounded down, or up when ``up``, to an integer; any finite float."""
    n, d = x.as_integer_ratio()
    return -(-(n << _W) // d) if up else (n << _W) // d


def _head_product(nums: list[int], dens: list[int], lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi] times prod_j (den_j - num_j) / den_j, enclosed in integers.

    The lower end is rounded down at each step.  Each floor loses less than
    1, and every factor lies in [0, 1], so it never grows what was lost
    before: the exact product of any start in [lo, hi] lies within
    hi - lo + len(nums) above the lower end.
    """
    slack = hi - lo + len(nums)
    for num, den in zip(nums, dens):
        lo = lo * (den - num) // den
    return lo, lo + slack


def _exp_fixed(X: int, up: bool) -> tuple[int, int]:
    """(M, k) with M 2^(k - _W) >= exp(X 2^-_W) when ``up``, else <= it.

    x = X 2^-_W reduces to r = x - k ln 2, k the integer nearest x / ln 2.
    As _LN2 <= 2^_W ln 2 < _LN2 + 1, 2^_W r lies in [R - k, R] for k >= 0
    and in [R, R - k] for k < 0, R = X - k _LN2, and the end taken keeps
    |r| < 1/2.  The Taylor series of exp(r) runs on |R|, with terms
    A_n = floor(A_{n-1} |R| / (n 2^_W)) below their exact values
    a_n = 2^_W |r|^n / n! by e_n < 1 + e_{n-1} / 2 < 2, and stops at the
    first A_N = 0, where a_N = e_N < 2 and the terms after it add up to less
    than a_N.  So the signed sum is within 2N + 2 of 2^_W exp(r) (Brent and
    Zimmermann, "Modern Computer Arithmetic", 2010, ch. 4).
    """
    k = (2 * X + _LN2) // (2 * _LN2)
    R = X - k * _LN2
    R = R + max(-k, 0) if up else R - max(k, 0)
    term = total = 1 << _W
    n = 0
    while term:
        n += 1
        term = term * abs(R) // (n << _W)
        total += -term if R < 0 and n & 1 else term
    return (total + 2 * n + 2 if up else total - 2 * n - 2), k


def _to_float(M: int, e: int, up: bool) -> float:
    """M 2^e, M >= 0, rounded down to a float, or up when ``up``."""
    shift = max(M.bit_length() - 53, -1074 - e)
    if shift > 0:
        M = -(-M >> shift) if up else M >> shift
        e += shift
    return math.ldexp(M, e)


def _degree0(head: tuple[int, int], tail_lo: float, tail_hi: float) -> tuple[float, float, float]:
    """(value, lower, upper) of H exp(-T), with lower <= H exp(-T) <= upper.

    H lies in [head[0], head[1]] 2^-_W, up to the terms that the quotients
    of its factors drop, which ``_UNDERFLOW`` in the exponent covers.  T
    lies in [tail_lo, tail_hi].  Both ends of the exponent are taken exactly
    in fixed point, rounded outward at 2^-_W, and the products with H are
    rounded outward to float once.  ``value`` is the float nearest the
    midpoint, within the bracket.  The products this serves are at most 1,
    and so is ``upper``.
    """
    roundoff = _fixed(_UNDERFLOW, True)
    x_hi = roundoff - _fixed(tail_lo, False)
    x_lo = -roundoff - _fixed(tail_hi, True)
    (m_lo, k_lo), (m_hi, k_hi) = _exp_fixed(x_lo, False), _exp_fixed(x_hi, True)
    lo, hi = head[0] * m_lo, head[1] * m_hi
    lower = _to_float(lo, k_lo - 2 * _W, False)
    upper = min(_to_float(hi, k_hi - 2 * _W, True), 1.0)
    mid = (math.ldexp(float(lo), k_lo - 2 * _W) + math.ldexp(float(hi), k_hi - 2 * _W)) / 2
    return min(max(mid, lower), upper), lower, upper


# ---------------------------------------------------------------------------
# Bracketed product engine


def _integral_tail(P: int, t: int) -> float:
    """Upper bound on sum_{p > P} p^-t: the integral of x^-t from P, rounded up.

    2^-1070 covers the roundings of a result below the normal range.
    """
    return float(P) ** (1 - t) / (t - 1) * (1.0 + 2.0**-48) + 2.0**-1070


def _live_terms(neglog) -> list[int]:
    """The t >= 2, ascending, with c_t != 0 in some z-degree of ``neglog``."""
    return [t for t in range(2, len(neglog[0])) if any(row[t] for row in neglog)]


def _span_terms(ts: list[int], P0: int) -> list[int]:
    """The t of ``ts`` whose T_t(P0), P0 < 1000, adds the primes between P0 and 1000.

    These are the t whose bound P0^(1-t)/(t-1) is above ``_POWER_CUT``; no
    p^-t with p <= 1000 and t <= 64 leaves the normal range.
    """
    if P0 == MIN_TRUNCATION:
        return []
    return [t for t in ts if _integral_tail(P0, t) > _POWER_CUT]


def _tail_sums(
    ts: list[int], P0: int, span: dict[int, float]
) -> dict[int, tuple[float, float, float]]:
    """(lo, mid, hi) with lo <= T_t = sum_{p > P0} p^-t <= hi, for each t of ``ts``, P0 <= 1000.

    Every T_t lies in [0, P0^(1-t)/(t-1)], and T_t(1000) in [lo_t, hi_t] of
    ``_TAIL_1000``.  ``span[t]``, for the t of ``_span_terms``, is the sum of
    p^-t over the primes in (P0, 1000]: each term one correctly rounded
    division, then an fsum, within (1 + u)^2 - 1 < 2.01u of the exact
    positive sum, and it is added to T_t(1000).  A t without a span sum
    keeps T_t(1000) as a lower bound.  ``mid`` is the midpoint.
    """
    out = {}
    for t in ts:
        lo, hi = _TAIL_1000[t - 2]
        if t in span:
            s = span[t]
            # covers the 2.01u of s and the roundings of s -/+ e
            e = 5 * _U * s
            # the sum rounds once
            lo = math.nextafter(lo + (s - e), -math.inf)
            hi = math.nextafter(hi + (s + e), math.inf)
        elif P0 < MIN_TRUNCATION:
            hi = math.inf
        lo, hi = max(lo, 0.0), min(hi, _integral_tail(P0, t))
        out[t] = (lo, min(max((lo + hi) / 2, lo), hi), hi)
    return out


def _tail_enclosure(
    coeffs: list[float],
    coeff_err: list[float],
    P0: int,
    sums: dict[int, tuple[float, float, float]],
) -> tuple[float, float, float]:
    """(lo, mid, hi) with lo <= sum_{p > P0} sum_{t >= 2} c_t p^-t <= hi.

    ``coeffs`` holds c_t for t <= _SERIES_DEGREE, each within ``coeff_err``;
    it is one z-degree of ``_neglog_coeffs``, so beyond t = 64 the c_t of
    all z-degrees together are at most 2^t / t in absolute value, the
    coefficients of -log(1 - 2 x^2 / (1 - x)).  ``sums`` encloses T_t for
    every t with c_t != 0, as ``_tail_sums`` gives it.

    The terms t > 64: every prime p > P0 is at least q = P0 + 1 >= 3, so
    with x = 2/p <= 2/q < 1 a prime's terms sum to at most
    sum_{t >= 65} x^t / t <= x^65 / (65 (1 - 2/q)), and
    sum_{p > P0} p^-65 <= q^-65 + int_q^inf y^-65 dy = q^-65 (1 + q/64).
    So they sum to at most (2/q)^65 (1 + q/64) / (65 (1 - 2/q)), and 2^-40
    of it covers its roundings (a result below the normal range falls to
    ``_UNDERFLOW``).
    """
    lo_terms: list[float] = []
    mid_terms: list[float] = []
    hi_terms: list[float] = []
    q = float(P0 + 1)
    slack = (2.0 / q) ** 65 * (1.0 + q / 64) / (65 * (1.0 - 2.0 / q)) * (1.0 + 2.0**-40)
    slack += _UNDERFLOW
    for t, c in enumerate(coeffs):
        if not c:
            continue
        lo, mid, hi = sums[t]
        lo_terms.append(c * (lo if c > 0 else hi))
        mid_terms.append(c * mid)
        hi_terms.append(c * (hi if c > 0 else lo))
        # the products and the fsum each round by at most one unit
        slack += (coeff_err[t] + 2 * _U * abs(c)) * hi
    return (
        math.fsum(lo_terms) - slack,
        math.fsum(mid_terms),
        math.fsum(hi_terms) + slack,
    )


def _exp_series(s: list[float]) -> list[float]:
    """Coefficients of exp(s[1] z + ... + s[K] z^K) up to z^K; s[0] is ignored.

    By the recurrence k e_k = sum_{j=1..k} j s_j e_{k-j}.  Each e_k takes
    at most k + 2 roundings, so its error is within (K + 1)(K + 8) u of
    the same recurrence run on |s|, the majorant exp(|s|).
    """
    js = [j * v for j, v in enumerate(s)]
    out = [1.0]
    for k in range(1, len(s)):
        out.append(sum(js[j] * out[k - j] for j in range(1, k + 1)) / k)
    return out


@record(frozen=True)
class _Bracket:
    """The coefficients d_0..d_K of a product over all primes, each bracketed."""

    value: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]


def _bracketed_product(
    quotients,
    rows_of,
    log_rel_err,
    neglog: tuple,
    P0: int,
    head: tuple[int, int] = (1 << _W, 1 << _W),
) -> _Bracket:
    """Enclose d_0..d_K of H prod_p F(p; z) mod z^(K+1), F = 1 - delta, over all primes.

    Degree 0 splits at 1000: the factors of the primes p <= 1000 are
    multiplied exactly in fixed point, from ``head`` = [lo, hi], H 2^_W in
    [lo, hi], and the rest enter through the T_t = sum_{p > 1000} p^-t of
    ``_TAIL_1000``; exp of the tail enclosure is taken in fixed point too,
    and the bracket is rounded to float once (``_degree0``).  Degree k >= 1
    splits at P0 <= 1000: the primes p <= P0 give float log rows, and the
    rest enter through T_t(P0), ``_TAIL_1000`` and the primes between P0
    and 1000.  The only primes sieved are those up to 1000.  ``density()``
    is the case K = 0, P0 = 1000, H its exceptional primes' correction.

    ``quotients(primes)`` takes an ``array('q')`` of primes and returns
    ``(nums, dens)``, with delta(p; 0) within 2^-1100 of num / den for each
    prime, in any order.  ``rows_of(primes)``, for K >= 1 only, takes primes
    p <= P0 and returns per-chunk sums ``(logs, majorant)``: ``logs[k - 1]``
    the computed sum over the chunk of the coefficient of z^k in
    log F(p; z), k = 1..K, within ``log_rel_err[k - 1]`` times
    ``majorant[k - 1]`` of the exact sum, and ``majorant`` K nonnegative
    sums.  ``neglog`` is ``_neglog_coeffs`` of delta(p; z) for every p > P0;
    a prime p <= P0 may have a factor of its own, as ``quotients`` and
    ``rows_of`` give it.  The chunk sums are added by fsum, which rounds
    once, within u of its result (Shewchuk, Discrete Comput. Geom. 18, 1997).

    For k >= 1, with S = log of the whole product, S~ its computed centre,
    S~_0 = log d~_0 for the point value d~_0 of degree 0, and
    |S - S~| <= E coefficient by coefficient,
        |d - d~_0 exp(S~ - S~_0)| << d~_0 exp(|S~ - S~_0|) (exp(E) - 1)
    as majorant series, since every coefficient of the right side is
    nonnegative.  E_0 bounds |log(d_0 / d~_0)| through the degree-0
    bracket.  Both series come from ``_exp_series``.
    """
    neglog, neglog_err = neglog
    K = len(neglog) - 1
    # K log rows and K majorant rows per prime share one chunk budget
    chunk = max(_FSUM_CHUNK // (2 * K + 1), 1)
    ts = _live_terms(neglog)
    parts, above = [], []
    for seg in prime_segments(MIN_TRUNCATION):
        head = _head_product(*quotients(seg), *head)
        n_low = bisect_right(seg, P0)
        for i in range(0, n_low if K else 0, chunk):
            parts.append(rows_of(seg[i : min(i + chunk, n_low)]))
        above += seg[n_low:]
    span = {t: math.fsum([1 / p**t for p in above]) for t in _span_terms(ts, P0)}
    sums = _tail_sums(ts, P0, span)
    tails = [_tail_enclosure(neglog[k], neglog_err[k], P0, sums) for k in range(1, K + 1)]

    if P0 < MIN_TRUNCATION:
        sums = _tail_sums(ts, MIN_TRUNCATION, {})
    tail_lo, _, tail_hi = _tail_enclosure(neglog[0], neglog_err[0], MIN_TRUNCATION, sums)
    value, lower, upper = _degree0(head, max(tail_lo, 0.0), tail_hi)
    if K == 0:
        return _Bracket((value,), (lower,), (upper,))

    # |S - S~| per degree: the log-sum roundoff (the chunk sums against
    # their majorant, and the fsum within u of its result), the tail's
    # half-width, and one rounding of S~.  d_0 = exp(S_0) lies in
    # [lower, upper], so |S_0 - log value| <= max(upper - value,
    # value - lower) / lower; the subtraction and the division round by at
    # most u each.  lower > 0: a series' d_0 is at least
    # prod_p (1 - p^-2) = 6 / pi^2, and its bracket is far narrower.
    s = [0.0] * (K + 1)
    err = [0.0] * (K + 1)
    e0 = max(upper - value, value - lower) / lower * (1 + 4 * _U)
    for k in range(1, K + 1):
        lo, mid, hi = tails[k - 1]
        bound = math.fsum([majorant[k - 1] for _, majorant in parts])
        generic = math.fsum([row[k - 1] for row, _ in parts])
        sum_err = log_rel_err[k - 1] * (1 + _U) * bound + _U * abs(generic) + _UNDERFLOW
        s[k] = generic - mid
        err[k] = (sum_err + max(hi - mid, mid - lo)) * (1.0 + 2.0**-50) + 2 * _U * abs(s[k])
    series = _exp_series(s)
    majorant = _exp_series([abs(v) for v in s])
    excess = [math.exp(e0) * v for v in _exp_series(err)]  # exp(E) - 1
    excess[0] = math.expm1(e0)
    eps = (K + 1) * (K + 8) * _U
    values, lowers, uppers = [value], [lower], [upper]
    for k in range(1, K + 1):
        spread = sum(majorant[j] * excess[k - j] for j in range(k + 1)) + eps * majorant[k]
        # 8 eps covers the float error of both series, their product and exp
        radius = value * spread * (1.0 + 8 * eps) + _UNDERFLOW
        mid = value * series[k]
        pad = radius * (1.0 + 2.0**-50) + 2 * _U * abs(mid)
        lowers.append(max(mid - pad, 0.0))
        uppers.append(mid + pad)
        values.append(min(max(mid, lowers[-1]), uppers[-1]))
    return _Bracket(tuple(values), tuple(lowers), tuple(uppers))


def _estimate(
    quotients,
    deficiency: tuple[tuple[int, ...], ...],
    target_error: float,
    *,
    start: int = MIN_TRUNCATION,
    truncation_prime: int | None = None,
    head: tuple[int, int] = (1 << _W, 1 << _W),
) -> DensityEstimate:
    """H prod_p F(p) with F = 1 - delta and a rigorous bracket.

    ``quotients`` maps a chunk of primes p <= 1000 to the exact quotients
    of their delta(p); beyond 1000 delta follows ``deficiency``, and H 2^_W
    lies in ``head``, as ``_bracketed_product`` takes them.  The product is
    reported at ``start``, or at ``truncation_prime``, at least ``start``,
    when one is pinned: it moves no bracket, since the tail beyond 1000 is
    enclosed whatever it is.  Without a pinned prime, a bracket wider than
    ``target_error`` raises UnreachableTargetError.
    """
    if truncation_prime is not None and truncation_prime < start:
        raise ValueError(
            f"truncation prime {truncation_prime} below required minimum {start}"
        )
    P = start if truncation_prime is None else truncation_prime
    # before any float of P: a P of hundreds of digits would overflow
    _check_budget(P)

    b = _bracketed_product(quotients, None, (), _neglog_coeffs(deficiency), MIN_TRUNCATION, head)
    lower, upper = b.lower[0], b.upper[0]
    est = DensityEstimate(b.value[0], lower, upper, P, math.log(upper / lower))
    if truncation_prime is None and est.width > target_error:
        raise UnreachableTargetError(
            f"bracket width {est.width:.3e} > target {target_error:.3e} "
            f"at truncation prime {P}",
            est,
        )
    return est


def _check_target(target_error: float) -> None:
    # NaN fails every comparison, so test for the valid range.
    if not 0.0 < target_error < math.inf:
        raise ValueError("target_error must be positive and finite")


def _exception_groups(exceptions) -> list[tuple[list[int] | array, ExponentPattern]]:
    """The exceptional primes as ascending (primes, pattern) chunks of one pattern each.

    A "p<=q" range's array goes in chunks, and the other keys one sorted
    list per distinct pattern, grouped first by the pattern object, so that
    no pattern is hashed per key; a key may pass 2^63, so it stays in a list.
    """
    groups = []
    if isinstance(exceptions, _PrimeRange):
        groups.append((exceptions.primes, exceptions.pattern))
        exceptions = exceptions.rest
    by_object: dict[int, tuple[ExponentPattern, list[int]]] = {}
    for p, pattern in exceptions.items():
        by_object.setdefault(id(pattern), (pattern, []))[1].append(p)
    by_pattern: dict[ExponentPattern, list[int]] = {}
    for pattern, keys in by_object.values():
        by_pattern.setdefault(pattern, []).extend(keys)
    groups += [(sorted(keys), pattern) for pattern, keys in by_pattern.items()]
    return [
        (primes[i : i + _FSUM_CHUNK], pattern)
        for primes, pattern in groups
        for i in range(0, len(primes), _FSUM_CHUNK)
    ]


def density(
    pap: PrimeAwarePattern,
    target_error: float = DEFAULT_TARGET_ERROR,
    *,
    truncation_prime: int | None = None,
) -> DensityEstimate:
    """Natural density of {n : every prime exponent allowed by ``pap``}.

    The density is the default's product times the correction
    C = N / D over the exceptional primes, N the product of their own
    factors and D of their default factors.  Both are taken exactly in
    fixed point (``_head_product``), each enclosed between an integer and
    that integer plus its number of factors, and C 2^_W lies in
    [floor(N_lo 2^_W / D_hi), ceil(N_hi 2^_W / D_lo)], where D > 0.6: a
    default that allows exponent 1 has every factor at least 1 - p^-2.
    C is the start of the default's product, evaluated once at 1000
    (``_bracketed_product``); the estimate is reported at
    max(MIN_TRUNCATION, largest exceptional prime + 1), and a bracket wider
    than ``target_error`` raises UnreachableTargetError; pass
    ``truncation_prime`` to pin the reported prime instead, in which case
    no width check is applied.  If the
    default pattern allows everything, D = 1, the density is C, and no
    width check applies; if it forbids exponent 1 the product diverges to
    zero and the estimate is exactly 0 with ``diverges_to_zero`` set.
    """
    _check_target(target_error)
    m = min_forbidden(pap.default)
    if m == 1:
        return DensityEstimate(0.0, 0.0, 0.0, 2, 0.0, True)
    groups = _exception_groups(pap.exceptions)
    last = max((primes[-1] for primes, _ in groups), default=0)
    if m is None and all(pattern.allows_everything() for _, pattern in groups):
        return DensityEstimate(1.0, 1.0, 1.0, max(last, 2), 0.0)

    default_exps = _delta_exponents(pap.default)
    num = den = (1 << _W, 1 << _W)
    for primes, pattern in groups:
        num = _head_product(*_delta_quotients(primes, _delta_exponents(pattern)), *num)
        if m is not None:
            den = _head_product(*_delta_quotients(primes, default_exps), *den)
    head = ((num[0] << _W) // den[1], -(-(num[1] << _W) // den[0]))
    if m is None:
        value, lower, upper = _degree0(head, 0.0, 0.0)
        return DensityEstimate(value, lower, upper, max(last, 2), math.log(upper / lower))

    return _estimate(
        lambda primes: _delta_quotients(primes, default_exps),
        _deficiency(lambda t: not contains(pap.default, t), 0),
        target_error,
        start=max(MIN_TRUNCATION, last + 1),
        truncation_prime=truncation_prime,
        head=head,
    )


# ---------------------------------------------------------------------------
# Closed-form catalog


# The catalog names some products twice (squarefree_or_high k=3 is skip_one
# k=2, exp_odd is mod_periodic ell=2); these caches compute each once.
@lru_cache(maxsize=None)
def _interval_density(pattern: ExponentPattern, target_error: float) -> DensityEstimate:
    return density(PrimeAwarePattern(default=pattern), target_error)


@lru_cache(maxsize=None)
def _mod_periodic(ell: int, target_error: float) -> DensityEstimate:
    if ell == 1:
        return DensityEstimate(1.0, 1.0, 1.0, 2, 0.0)

    def quotients(primes: array) -> tuple[list[int], list[int]]:
        # p^-2 - p^-(ell+1) + p^-(ell+2) - ..., cut as in _delta_quotients
        pairs = [
            (1, p * p) if (ell + 1) * (p.bit_length() - 1) >= _CAP_BITS
            else (p ** (ell - 1) - 1, p * (p**ell - 1))
            for p in primes
        ]
        return [num for num, _ in pairs], [den for _, den in pairs]

    # weight 1 on the forbidden exponents, those not = 1 mod ell
    deficiency = _deficiency(lambda t: (t - 1) % ell != 0, 0)
    return _estimate(quotients, deficiency, target_error)


def closed_form(
    form: str,
    *,
    k: int | None = None,
    ell: int | None = None,
    q: int | None = None,
    p: int | None = None,
    primes: "set[int] | None" = None,
    target_error: float = DEFAULT_TARGET_ERROR,
) -> DensityEstimate:
    """Evaluate a cataloged density constant.

    Every form is one Euler product over an exponent pattern, some with
    exceptional primes, and is computed by ``density()``; ``exp_odd`` is
    ``mod_periodic`` with ell = 2, a product over its own closed-form local
    factor, and ``ex3`` is d_0 + d_1 of a density series.  A bracket wider
    than ``target_error`` raises UnreachableTargetError, except for ``ex3``.

    Forms and parameters:

    - ``powerfree`` (k >= 1): exponents in [1, k]; density 1/zeta(k+1).
    - ``squarefree_or_high`` (k >= 2): exponents in {1} or >= k;
      prod (1 - p^-2 + p^-k).
    - ``skip_one`` (k >= 2): every exponent except k;
      prod (1 - p^-k + p^-(k+1)).
    - ``exp_odd``: every exponent odd; prod (1 - 1/(p(p+1))).
    - ``mod_periodic`` (ell >= 1): every exponent = 1 mod ell;
      prod (1 - (p^(ell-1) - 1)/(p (p^ell - 1))).
    - ``ex1`` (q prime, k >= 2): k-free and coprime to every prime <= q,
      the pattern 1..k-1 with p<=q: "";
      prod_{p<=q}(1 - 1/p) / (zeta(k) prod_{p<=q}(1 - p^-k)).
    - ``ex2`` (primes=S, k >= 2): k-free and coprime to the primes in S,
      the pattern 1..k-1 with "" at each prime of S;
      (1/zeta(k)) prod_{q in S} (q^k - q^(k-1)) / (q^k - 1).
    - ``ex3_single`` (p prime, k >= 2): p unrestricted, everything else < k,
      the pattern 1..k-1 with p: 1..inf; (1/zeta(k)) p^k / (p^k - 1).
    - ``ex3`` (k >= 2): at most one prime with exponent >= k; d_0 + d_1 of
      the series of the weight 1 on the exponents >= k, added with outward
      rounding; (1/zeta(k)) (1 + sum_p 1/(p^k - 1)).
    """
    _check_target(target_error)
    if form == "powerfree":
        if k is None or k < 1:
            raise ValueError("powerfree needs k >= 1")
        return _interval_density(normalize_intervals([(1, k)]), target_error)

    if form == "squarefree_or_high":
        if k is None or k < 2:
            raise ValueError("squarefree_or_high needs k >= 2")
        return _interval_density(normalize_intervals([(1, 1), (k, None)]), target_error)

    if form == "skip_one":
        if k is None or k < 2:
            raise ValueError("skip_one needs k >= 2")
        return _interval_density(
            normalize_intervals([(1, k - 1), (k + 1, None)]), target_error
        )

    if form == "exp_odd":
        form, ell = "mod_periodic", 2

    if form == "mod_periodic":
        if ell is None or ell < 1:
            raise ValueError("mod_periodic needs ell >= 1")
        return _mod_periodic(ell, target_error)

    if form == "ex1":
        if q is None or not is_prime(q) or k is None or k < 2:
            raise ValueError("ex1 needs prime q and k >= 2")
        exceptions = _PrimeRange(q, EMPTY_PATTERN, {})
    elif form == "ex2":
        if primes is None or k is None or k < 2:
            raise ValueError("ex2 needs a prime set and k >= 2")
        exceptions = dict.fromkeys(primes, EMPTY_PATTERN)
    elif form == "ex3_single":
        if p is None or not is_prime(p) or k is None or k < 2:
            raise ValueError("ex3_single needs prime p and k >= 2")
        exceptions = {p: normalize_intervals([(1, None)])}
    elif form == "ex3":
        if k is None or k < 2:
            raise ValueError("ex3 needs k >= 2")
        from . import series  # only ex3 needs the series engine

        ds = series.density_series(series.ExponentWeight.threshold(k), 1, MIN_TRUNCATION)
        lower = math.nextafter(ds.lower[0] + ds.lower[1], -math.inf)
        upper = math.nextafter(ds.upper[0] + ds.upper[1], math.inf)
        value = min(max(ds.coeffs[0] + ds.coeffs[1], lower), upper)
        return DensityEstimate(value, lower, upper, MIN_TRUNCATION, math.log(upper / lower))
    else:
        raise ValueError(f"unknown closed form {form!r}")
    pap = PrimeAwarePattern(default=normalize_intervals([(1, k - 1)]), exceptions=exceptions)
    return density(pap, target_error)
