"""Euler products over primes with proven brackets.

The density of {n : every prime exponent is allowed} is an infinite
product of per-prime local factors

    F(p) = 1 - delta(p),  delta(p) = sum over forbidden [lo, hi] of
                          p^-lo - p^-(hi+1)

(the second term drops when hi is unbounded).  A factor is described
once, by the exponents e_0 < e_1 < ... of delta(p) = sum_j (-1)^j p^-e_j,
the forbidden pattern's ends (``_delta_exponents``), and every prime's
delta, with its own pattern or the default, is one exact integer quotient
num / p^E of them (``_delta_quotients``).

A density follows the default pattern at every prime but a finite set E
of exceptional primes, so it is the default's product times the finite
correction C = prod_{p in E} F_E(p) / F(p).  C is one fixed-point chain of
per-prime ratios, and it scales the integer enclosure of the default's
product exactly, after the engine.  That product splits once,
at 1000: the factors of the primes p <= 1000 are multiplied as W-bit
fixed-point integers rounded outward at each step, and every prime above
1000 enters through -log F(p) = sum_t c_t p^-t, for exact rationals
c_t = -b_t / t derived from the same exponents (``_neglog_coeffs``), and
the power sums T_t = sum_{p > 1000} p^-t:

    sum_{p > 1000} -log F(p) = sum_{t <= 64} c_t T_t + cut,

where the cut (the terms t > 64) is below 1e-170.  T_t does not depend on
the pattern.  ``_TAIL_1000`` holds T_t(1000) for t = 2..64 between two
adjacent floats, computed once from prime zeta at high precision and
checked by the tests.  So the sieve runs only to 1000, no zeta value is
computed at run time, and neither an exceptional prime nor a pinned
truncation prime moves the split.  The log enclosure, below 2^-12, is
taken in fixed point, exponentiated there by its Taylor series with a
counted error, multiplied by the head and rounded outward to float once,
so a bracket is one or two ulp wide.
The published [lower, upper] holds the true density with every error term
and all float roundoff included (Ettahri, Ramare and Surel, "Fast
multi-precision computation of some Euler products", Math. Comp. 2021;
H. Cohen, "High precision computation of Hardy-Littlewood constants",
1998; Brent and Zimmermann, "Modern Computer Arithmetic", 2010, ch. 4).

The same engine, ``_bracketed_product``, serves the density series of
``series``: there each local factor is a polynomial in a second variable z,
cut at z^K, described by one row of exponents per z-degree in delta's
form.  The rows are all a caller passes: from them the engine builds the
head's exact quotients, the tail's log and the exact zeros.  The head
multiplies the polynomials of the primes up to 1000 in W-bit fixed point,
every z-degree of the tail's log is enclosed through the same table, and
the exp of the tail series is taken in integer interval arithmetic, so each
d_k comes out as one exact integer enclosure, which its publisher rounds to
float once (``_publish``, or ``series.density_series``).  W is 256 bits,
or up to 640 where the head's rounding would widen a small coefficient.
``density()`` is its case K = 0, one row, and ``zeta_int``, ``_prime_zeta``
and ``prime_sum`` are the engine quotients 1/d_0 and d_1/d_0.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import repeat

from ._record import record
from .patterns import (
    EMPTY_PATTERN,
    ExponentPattern,
    PrimeAwarePattern,
    complement,
    min_forbidden,
    normalize_intervals,
    parse_prime_aware,
)
# sieve_primes stays a module attribute: perfbench/trace_launch.py wraps it by name.
from .primes import _check_budget, is_prime, prime_segments, sieve_primes  # noqa: F401

DEFAULT_TARGET_ERROR = 1e-8
# Smallest truncation prime, and the end of the exact head.  Beyond it the
# terms t > _SERIES_DEGREE of every tail are below 1e-170, and the tail
# enclosure is about 1e-19 wide.
MIN_TRUNCATION = 1000

# Degree at which power series in 1/p are cut.
_SERIES_DEGREE = 64
# Exceptional primes per chunk of quotients.
_CHUNK = 1 << 14
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


@record
class BoundedValue:
    """A float with a proven absolute error bound."""

    value: float
    error: float


@record
class LocalFactor:
    """Per-prime term of a density product; always in (0, 1]."""

    p: int
    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"local factor {self.value} outside (0, 1]")


@record
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
# Zeta and prime-zeta constants.  Mod z^2, prod_p (a_0 + a_1 z) is
# d_0 (1 + z sum_p a_1 / a_0), so d_1 / d_0 = sum_p a_1 / a_0: p^-s for
# a_1 = p^-s - p^-2s, and 1 / (p^k - 1) for a_1 = p^-k.  Each a_0 + a_1 <= 1,
# and each p^-t has at most 2 in absolute value over both rows, as ``_CUT`` asks.


def _ratio(num: tuple, den: tuple) -> BoundedValue:
    """num / den for enclosures (lo, hi, e) of [lo, hi] 2^e, den's lo > 0.

    The ends floor(n_lo 2^q / d_hi) and ceil(n_hi 2^q / d_lo), q bits past
    d_hi's length, are rounded outward to float once.  value is their mean
    and error their difference, exact by Sterbenz's lemma when upper <= 2
    lower or when lower is 0, and otherwise far above the mean's rounding.
    """
    (n_lo, n_hi, e_n), (d_lo, d_hi, e_d) = num, den
    q = d_hi.bit_length() + 64
    lower = _to_float((n_lo << q) // d_hi, e_n - e_d - q, False)
    upper = _to_float(-(-(n_hi << q) // d_lo), e_n - e_d - q, True)
    return BoundedValue((lower + upper) / 2, upper - lower)


@lru_cache(maxsize=256)
def zeta_int(s: int) -> BoundedValue:
    """zeta(s) for integer s >= 2, as 1 / d_0 of prod_p (1 - p^-s) < 1."""
    if s < 2:
        raise ValueError("zeta_int requires s >= 2")
    lo, hi, e = _bracketed_product(((s,),))[0]
    return _ratio((1, 1, 0), (lo, min(hi, 1 << -e), e))


@lru_cache(maxsize=256)
def _prime_zeta(s: int) -> BoundedValue:
    """sum over all primes of p^-s, s >= 2."""
    if s < 2:
        raise ValueError("prime zeta evaluated only for s >= 2")
    d_0, d_1 = _bracketed_product(((s,), (s, 2 * s)))
    return _ratio(d_1, d_0)


def prime_sum(k: int) -> BoundedValue:
    """sum over all primes of 1 / (p^k - 1) = sum_{j >= 1} p^-jk, k >= 2."""
    if k < 2:
        raise ValueError("prime_sum requires k >= 2")
    d_0, d_1 = _bracketed_product(((k,), (k,)))
    return _ratio(d_1, d_0)


# ---------------------------------------------------------------------------
# Local factors: delta(p) = 1 - F(p) as one exact integer quotient

# delta(p) drops its terms p^-e with p^e >= 2^_CAP_BITS.
_CAP_BITS = 1100


def _delta_exponents(pattern: ExponentPattern) -> tuple[int, ...]:
    """e_0 < e_1 < ... with delta(p) = sum_j (-1)^j p^-e_j under ``pattern``.

    These are the forbidden exponents' ends: each forbidden [lo, hi] gives
    (1 - 1/p) sum_{lo <= i <= hi} p^-i = p^-lo - p^-(hi+1), or p^-lo when
    unbounded.
    """
    return complement(pattern).ends


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
# The tail's log: -log F(p; z) as a series in 1/p, from the rows of F


@lru_cache(maxsize=256)
def _neglog_coeffs(exps: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Integers b with -log F(p; z) = sum_{t, k} (-b[k][t] / t) p^-t z^k, t <= 64, k <= K.

    ``exps`` is the one description of F(p; z), its rows as
    ``_bracketed_product`` takes them, so the coefficient a_t of p^-t in F
    is -(-1)^j at degree 0 for t = e_j of entry 0, and (-1)^j at degree k
    for t = e_j of entry k >= 1; only t <= 64 is read.  The rows of b are
    indexed [k][t], as tuples, since every call with the same exps shares
    them.  The identity x F' = F x (log F)' gives b_t = t [p^-t] log F as

        b_t = t a_t - sum_{0 < s < t} a_s b_{t-s},

    products of z-polynomials cut at z^K, in exact integers.  The sum runs
    over the nonzero a_s alone: a density's a_t is nonzero only where its
    pattern starts or ends a run of allowed exponents.
    """
    K = len(exps) - 1
    # a[s]: the nonzero terms of a_s as (degree, value) pairs
    a: list[list[tuple[int, int]]] = [[] for _ in range(_SERIES_DEGREE + 1)]
    for k, row in enumerate(exps):
        for j, t in enumerate(row):
            if t <= _SERIES_DEGREE:
                a[t].append((k, (-1) ** (j + (k == 0))))
    nonzero = [s for s, a_s in enumerate(a) if a_s]
    b: list[list[int]] = [[0] * (K + 1)]
    for t in range(1, _SERIES_DEGREE + 1):
        bt = [0] * (K + 1)
        for k, v in a[t]:
            bt[k] += t * v
        for s in nonzero[: bisect_left(nonzero, t)]:
            bs = b[t - s]
            for d, v in a[s]:
                for i in range(K + 1 - d):
                    bt[i + d] -= v * bs[i]
        b.append(bt)
    return tuple(zip(*b))


# ---------------------------------------------------------------------------
# Fixed point: exact heads, the tail and its exp, rounded to float once

# Fraction bits of a density's correction: the integer X stands for X 2^-_W.
_W = 128
# Fraction bits of the engine's first pass, and the most its one rerun takes:
# beyond 640 the cut ``_CUT`` outweighs the head's rounding.
_W_FIRST = 256
_W_CAP = 640
# The terms t > 64 of a tail beyond 1000.  Beyond t = 64 the coefficients of
# -log F(p; z), all z-degrees together, are at most 2^t / t in absolute value,
# those of -log(1 - 2 x^2 / (1 - x)).  Every prime p > 1000 is at least
# q = 1001, so with x = 2/p <= 2/q a prime's terms sum to at most
# sum_{t >= 65} x^t / t <= x^65 / (65 (1 - 2/q)), and
# sum_{p > 1000} p^-65 <= q^-65 + int_q^inf y^-65 dy = q^-65 (1 + q/64).  So
# they sum to at most (2/q)^65 (1 + q/64) / (65 (1 - 2/q)), the ratio below,
# about 2^-583.
_CUT = (1065 << 59, 65 * 999 * 1001**64)
# The ends of each T_t(1000) of ``_TAIL_1000`` as (n, q), the end being n 2^-q.
_TAIL_ENDS = tuple(
    tuple((n, d.bit_length() - 1) for n, d in (lo.as_integer_ratio(), hi.as_integer_ratio()))
    for lo, hi in _TAIL_1000
)


def _head_poly(cols: list, W: int, K: int) -> tuple[list[int], int]:
    """(H, S) with each coefficient of prod_p sum_k a_k(p) z^k in [H_k - 1, H_k + S] 2^-W.

    The product is cut at z^K and starts at exactly 1, H = 2^W.  ``cols``
    holds one ``_delta_quotients`` column (nums, dens) per z-degree, one
    entry per prime: column 0 is delta(p) = 1 - a_0, column k >= 1 is
    a_k >= 0, and the a_k of a prime sum to at most 1; columns past z^K are
    not read.  Each a_k is floored to alpha_k = floor(a_k 2^W), and each
    coefficient sum_j H_j alpha_{k-j} 2^-W of the product is floored too.
    The coefficients of every partial product sum to at most 1, so a step
    loses less than 1 unit through the alpha_k and 1 through its own floor;
    as the a_k sum to at most 1, it never grows what was lost before.  So S
    counts 3 units a prime, and one unit, which with the 1 below H_k covers
    the terms the quotients drop, at most 2^-1100 a coefficient.  These two
    units are relative to H, about 2^-255 of a density's head, so they also
    cover the terms dropped by the quotients of ``density()``'s correction:
    each ratio F_E(p) / F(p) is at least F_E(p) >= 1/2 and within 2^-1098
    of its quotients' relatively, so the chain of at most 5.8 million
    primes is within 2^-1075.

    Kronecker packing: each prime's alpha_k are packed into one integer, and
    the H_j into another, in fields of 2W + 8 bits.  Every field of their
    product, sum_j H_j alpha_{k-j} <= 2^W 2^W, fits its own, so one
    multiplication gives every coefficient, and one mask and one shift
    floor the first K + 1 of them in place.  Packing runs from z^K down,
    so the zero alpha_k atop a large prime's row cost no big-integer step.
    """
    width = 2 * W + 8
    mask = int.from_bytes((bytes(W // 8) + b"\xff" * (W // 8 + 1)) * (K + 1), "little")
    packed = repeat(0)
    for nums, dens in cols[K:0:-1]:
        packed = [(a << width) + (num << W) // den for a, num, den in zip(packed, nums, dens)]
    nums, dens = cols[0]
    packed = [(a << width) + (den - num << W) // den for a, num, den in zip(packed, nums, dens)]
    H = 1 << W
    for a in packed:
        H = (H * a & mask) >> W
    field = (1 << width) - 1
    return [H >> (width * k) & field for k in range(K + 1)], 3 * len(packed) + 1


def _tail_fixed(b: tuple[int, ...], W: int) -> tuple[int, int]:
    """[lo, hi] with lo <= 2^W sum_{p > 1000} sum_{t >= 2} (-b_t / t) p^-t <= hi.

    ``b`` holds exact integers b_t for t <= 64, one z-degree of
    ``_neglog_coeffs``.  Each term takes the end of T_t(1000) from
    ``_TAIL_1000`` that bounds it, n 2^-q, and is floored or ceiled once
    (floor(floor(x) / t) = floor(x / t)); ``_CUT`` covers the terms t > 64.
    """
    lo = hi = 0
    for t, ends in enumerate(_TAIL_ENDS, start=2):
        c = -b[t]
        if c:
            (n_lo, q_lo), (n_hi, q_hi) = ends if c > 0 else ends[::-1]
            lo += (c * n_lo << W >> q_lo) // t
            hi -= (-c * n_hi << W >> q_hi) // t
    cut = -(-(_CUT[0] << W) // _CUT[1])
    return lo - cut, hi + cut


def _exp_fixed(Y: int, W: int, up: bool) -> int:
    """M with M 2^-W <= exp(-y), y = Y 2^-W in [0, 1/2], or M 2^-W >= it when ``up``.

    Every caller passes an end of the tail's log L_0 = sum_{p > 1000} -log F(p):
    each product the engine encloses allows exponent 1, so F(p) >= 1 - p^-2
    and L_0 < 1.3e-4 < 2^-12; a Y outside [0, 2^(W-1)] raises ValueError.
    The Taylor terms A_n = floor(A_{n-1} Y / (n 2^W)) lie below their exact
    values a_n = 2^W y^n / n! by e_n < 1 + e_{n-1} / 2 < 2, and the series
    stops at the first A_N = 0, where a_N = e_N < 2 and the terms after it
    add up to less than a_N.  So the alternating sum is within 2N + 2 of
    2^W exp(-y) (Brent and Zimmermann, "Modern Computer Arithmetic", 2010,
    ch. 4).  The last 2 is needed only by this count, which takes every
    error at its bound with one sign: for every Y at W <= 16 and 10^5 random
    Y at W = 32..64 the sum is within N / 2, so no test sees the last 2.
    """
    if not 0 <= Y <= 1 << (W - 1):
        raise ValueError(f"exp(-Y 2^-{W}) needs 0 <= Y <= 2^{W - 1}")
    term = total = 1 << W
    n = 0
    while term:
        n += 1
        term = term * Y // (n << W)
        total += -term if n & 1 else term
    return total + 2 * n + 2 if up else total - 2 * n - 2


def _to_float(M: int, e: int, up: bool) -> float:
    """M 2^e, M >= 0, rounded down to a float, or up when ``up``."""
    shift = max(M.bit_length() - 53, -1074 - e)
    if shift > 0:
        M = -(-M >> shift) if up else M >> shift
        e += shift
    return math.ldexp(M, e)


def _round_out(lo: int, hi: int, e: int) -> tuple[float, float, float]:
    """(value, lower, upper) for [lo, hi] 2^e, with 0 <= lo <= hi and e < 0.

    The ends are rounded outward to float, and ``upper`` is capped at 1,
    which no density or sum of densities here exceeds.  ``value`` is the
    mean of the floats nearest the two ends (int division rounds
    correctly), within the bracket.
    """
    lower = _to_float(lo, e, False)
    upper = min(_to_float(hi, e, True), 1.0)
    mid = (lo / (1 << -e) + hi / (1 << -e)) / 2
    return min(max(mid, lower), upper), lower, upper


# ---------------------------------------------------------------------------
# Bracketed product engine


def _g_series(L: list[tuple[int, int]], W: int) -> list[tuple[int, int]]:
    """[g_lo, g_hi] 2^-W around each g_k of exp(L_0 - L(z)), each L_k in [lo, hi] 2^-W.

    g_0 = 1 and k g_k = sum_{j=1..k} j s_j g_{k-j}, s = -L, in integer intervals
    rounded outward; the signs are mixed, so a product takes its ends' min and max.
    """
    g = [(1 << W, 1 << W)]
    for k in range(1, len(L)):
        lo = hi = 0
        for j in range(1, k + 1):
            ends = [-s * e for s in L[j] for e in g[k - j]]
            lo += j * min(ends)
            hi += j * max(ends)
        g.append((lo // (k << W), -(-hi // (k << W))))
    return g


def _product_at(cols: list, b: tuple, W: int) -> tuple[list[tuple], int]:
    """Each d_k of ``_bracketed_product`` as (lo, hi, e) at W bits, and the slack."""
    K = len(b) - 1
    H, slack = _head_poly(cols, W, K)
    L = [_tail_fixed(row, W) for row in b]
    e_lo = _exp_fixed(L[0][1], W, False)
    e_hi = _exp_fixed(max(L[0][0], 0), W, True)
    g = _g_series(L, W)
    out = []
    for k in range(K + 1):
        lo = hi = 0
        for h, (g_lo, g_hi) in zip(H[k::-1], g):
            h_lo, h_hi = max(h - 1, 0), h + slack
            lo += min(h_lo * g_lo, h_hi * g_lo)
            hi += max(h_lo * g_hi, h_hi * g_hi)
        out.append((max(lo, 0) * e_lo, hi * e_hi, -3 * W))
    return out, slack


def _bracketed_product(exps: tuple) -> list[tuple[int, int, int]]:
    """Enclose d_0..d_K of prod_p F(p; z) mod z^(K+1) over all primes.

    A local factor is described once, by its exponent rows ``exps``: entry 0
    holds e_0 < e_1 < ... with delta(p) = 1 - a_0 = sum_j (-1)^j p^-e_j, and
    entry k = 1..K the exponents of the coefficient a_k of F(p; z) in the
    same form, empty where no exponent has weight k.  ``_head_poly``
    multiplies their ``_delta_quotients`` over the primes up to 1000, each
    within 2^-1100 of the true one, into the head H.  The rest enter through
    L = sum_{p > 1000} -log F(p; z), whose coefficients ``_neglog_coeffs``
    derives from ``exps``, each z-degree enclosed by ``_tail_fixed``, and
    exp(-L) = exp(-L_0) g(z): exp(-L_0) from ``_exp_fixed``, a Taylor
    series at L_0 < 2^-12 (row 0 allows exponent 1), and g from
    ``_g_series``.  d_k = exp(-L_0) sum_j H_j g_{k-j} comes back as the
    exact integers (lo, hi, e) of [lo, hi] 2^e, for its publisher to round
    outward once.  ``density()`` is K = 0, its default's one row.

    A row is read below exponent 1100 only: the quotients keep the terms
    p^e < 2^1100, the tail t <= 64, and ``_CUT`` bounds t > 64 for any
    pattern.  So rows that agree below 1100 share one enclosure, which holds
    each of their products, the head's unit covering the dropped terms.

    The first pass takes W = 256 fraction bits.  The head's slack S is below
    2^-60 of d_k >= 2^(n-1), n = bits(lo) + e, at W >= bits(S) + 61 - n, and
    it is the same count at any W.  The coefficients that need a wider W
    than the first (lo = 0 asks for over 640) are computed once more, up to
    the highest of them, at the widest W they need, a multiple of 64 and at
    most 640.  A d_k is exactly 0 when k is no sum of degrees j >= 1 with a
    non-empty row, since then no product of the a_j reaches z^k: it comes
    back as (0, 0, e) and is never rerun.
    """
    b = _neglog_coeffs(exps)
    primes = [p for seg in prime_segments(MIN_TRUNCATION) for p in seg]
    cols = [_delta_quotients(primes, e) for e in exps]
    out, slack = _product_at(cols, b, _W_FIRST)
    bits = slack.bit_length()
    need = [bits + 61 - lo.bit_length() - e for lo, _, e in out]
    reach = [True]
    for k in range(1, len(exps)):
        reach.append(any(reach[k - j] and exps[j] for j in range(1, k + 1)))
        if not reach[k]:
            out[k], need[k] = (0, 0, out[k][2]), 0
    wider = [k for k, n in enumerate(need) if n > _W_FIRST]
    if wider:
        W = min(-(-max(need) // 64) * 64, _W_CAP)
        again, _ = _product_at(cols, b[: wider[-1] + 1], W)
        for k in wider:
            out[k] = again[k]
    return out


def _publish(enclosure: tuple, P: int, target_error: float | None = None) -> DensityEstimate:
    """``enclosure`` (lo, hi, e), [lo, hi] 2^e, rounded outward once and reported at prime P.

    hi = 0 marks a product that diverges to zero, as every finite one is positive.
    A bracket wider than ``target_error``, if given, raises UnreachableTargetError.
    """
    value, lower, upper = _round_out(*enclosure)
    tail = math.log(upper / lower) if upper else 0.0
    est = DensityEstimate(value, lower, upper, P, tail, upper == 0.0)
    if target_error is not None and est.width > target_error:
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


def density(
    pap: PrimeAwarePattern,
    target_error: float = DEFAULT_TARGET_ERROR,
    *,
    truncation_prime: int | None = None,
) -> DensityEstimate:
    """Natural density of {n : every prime exponent allowed by ``pap``}.

    The density is the default's product D times the correction
    C = prod_{p in E} F_E(p) / F(p) over the exceptional primes E whose
    pattern is not the default's, taken as one integer chain, a chunk of a
    window of ``pap.runs()`` at a time, so no array of a ``p<=q`` range is
    held whole: from x = 2^_W, each prime takes x <- floor(x t / b), with
    t / b = (den_E - num_E) den / (den_E (den - num)) from the
    ``_delta_quotients`` of its pattern and of the default.  A floor loses
    less than 1, scaled by the product of the later ratios.  F_E <= 1, and
    F >= 1 - p^-2 when the default allows exponent 1 (a truncated
    alternating delta sum is at most its first term, so the quotients obey
    both), so that product is below zeta(2) < 5/3, and 1 after the last
    prime: with n = |E|, x lies within ceil(5n/3) units below C 2^_W, and
    with D in [lo, hi] 2^e the density is in [lo x, hi (x + ceil(5n/3))]
    2^(e - _W).  D is exactly 0 when the default forbids exponent 1 (the
    product diverges to zero), and exactly 1 when it allows everything:
    then its quotients are taken as 0 / 1, every ratio is at most 1, x lies
    within n units below C 2^_W, and C takes one more unit each way, once a
    factor was multiplied, for the terms the quotients drop.  Otherwise D
    comes from ``_bracketed_product``, whose charge covers those terms
    (``_head_poly``); it never reruns here: d_0 > 0.6 and its slack has 9
    bits, so it needs 70 bits of 256.

    The estimate is reported at 2 for a divergent product, at the largest
    exceptional prime (or 2) when the default allows everything, and
    otherwise at max(MIN_TRUNCATION, largest exceptional prime + 1); a
    ``truncation_prime`` at least that pins the reported prime instead and
    moves no bracket.  A pinned or engine prime above the sieve budget
    raises ResourceBudgetError, and a bracket wider than ``target_error``
    UnreachableTargetError.
    """
    _check_target(target_error)
    m = min_forbidden(pap.default)
    last = next(reversed(pap.exceptions), 0)
    start = 2 if m == 1 else max(last, 2) if m is None else max(MIN_TRUNCATION, last + 1)
    P = start if truncation_prime is None else truncation_prime
    if P < start:
        raise ValueError(f"truncation prime {P} below required minimum {start}")
    if truncation_prime is not None or m is not None:
        # before any float of P: a P of hundreds of digits would overflow
        _check_budget(P, "truncation prime")
    default_exps = _delta_exponents(pap.default)
    x, n = 1 << _W, 0
    for windows, pattern in pap.runs() if m != 1 else ():
        if pattern == pap.default:
            continue
        exps = _delta_exponents(pattern)
        for window in windows:
            for i in range(0, len(window), _CHUNK):
                chunk = window[i : i + _CHUNK]
                d_nums, d_dens = ((repeat(0), repeat(1)) if m is None
                                  else _delta_quotients(chunk, default_exps))
                for num, den, d_num, d_den in zip(*_delta_quotients(chunk, exps), d_nums, d_dens):
                    x = x * (den - num) * d_den // (den * (d_den - d_num))
                n += len(chunk)
    slack = n if m is None else -(-(5 * n) // 3)
    unit = int(m is None and n > 0)  # n > 0: a factor was multiplied
    lo, hi, e = ((0, 0, 0) if m == 1 else (1, 1, 0) if m is None
                 else _bracketed_product((default_exps,))[0])
    return _publish((lo * max(x - unit, 0), hi * (x + slack + unit), e - _W), P, target_error)


# ---------------------------------------------------------------------------
# Closed-form catalog


# The catalog names some products twice (squarefree_or_high k=3 is skip_one
# k=2, exp_odd is mod_periodic ell=2); this cache computes each once.
@lru_cache(maxsize=256)
def _interval_density(pattern: ExponentPattern, target_error: float) -> DensityEstimate:
    return density(PrimeAwarePattern(default=pattern), target_error)


def _periodic_pattern(ell: int) -> ExponentPattern:
    """1, 1 + ell, ... below top = 1 + ell ceil(1100 / ell), every exponent from top on.

    top is the first exponent of the class above 1100, so the pattern's
    delta row agrees with that of {e = 1 mod ell} below 1100, all that the
    engine reads of a row: its quotients keep the terms p^e < 2^1100, its
    tail t <= 64, and ``_CUT`` bounds t > 64 for any pattern.  So both get
    one enclosure, which holds the periodic density (``_bracketed_product``).
    """
    top = 1 + ell * -(-_CAP_BITS // ell)
    return normalize_intervals([*((e, e) for e in range(1, top, ell)), (top, None)])


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

    Every form but ``ex3`` is the ``density()`` of an exponent pattern, some
    with exceptional primes: ``mod_periodic``'s pattern is cut at 1100 into
    one the engine reads alike (``_periodic_pattern``), and ``exp_odd`` is
    its ell = 2.  ``ex3`` is d_0 + d_1 of a density series.  A bracket wider
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
      the series of the weight 1 on the exponents >= k, summed exactly and
      rounded outward once; (1/zeta(k)) (1 + sum_p 1/(p^k - 1)).
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
        return _interval_density(_periodic_pattern(ell), target_error)

    if form == "ex1":
        if q is None or not is_prime(q) or k is None or k < 2:
            raise ValueError("ex1 needs prime q and k >= 2")
        doc = {"default": f"1..{k - 1}", "exceptions": {f"p<={q}": ""}}
        return density(parse_prime_aware(doc), target_error)
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
        # delta(p) and a_1, the weight on the exponents >= k, are both p^-k
        (lo0, hi0, e0), (lo1, hi1, e1) = _bracketed_product(((k,), (k,)))
        e = min(e0, e1)
        lo, hi = (lo0 << e0 - e) + (lo1 << e1 - e), (hi0 << e0 - e) + (hi1 << e1 - e)
        return _publish((lo, hi, e), MIN_TRUNCATION)
    else:
        raise ValueError(f"unknown closed form {form!r}")
    pap = PrimeAwarePattern(default=normalize_intervals([(1, k - 1)]), exceptions=exceptions)
    return density(pap, target_error)
