"""Euler products over primes with proven brackets.

The density of {n : every prime exponent is allowed} is an infinite
product of per-prime local factors

    F(p) = 1 - delta(p),  delta(p) = sum over forbidden [lo, hi] of
                          p^-lo - p^-(hi+1)

(the second term drops when hi is unbounded).  Every prime's delta, with
its own pattern or the default, is one exact integer quotient num / p^E
rounded once to float (``_delta``), so one error constant covers the
log-sum of every scalar product.

A product is evaluated once, at a truncation prime P (``MIN_TRUNCATION`` =
1000, or just above the largest exceptional prime).  The factors p <= P are
multiplied out in floating point, as a sum of logs with a stated roundoff
bound.  The omitted factors are enclosed through prime zeta values: with
-log F(p) = sum_t c_t p^-t,

    sum_{p > P} -log F(p) = sum_{t <= 64} c_t (P(t) - head_t(P)) + cut,

where P(t) = sum_p p^-t, head_t(P) = sum_{p <= P} p^-t, and the cut (the
terms t > 64) is below 1e-170.  Each P(t) carries the error bars of
``zeta_int`` through the Moebius inversion of log zeta; each tail
P(t) - head_t(P) is also at most P^(1-t)/(t-1), which alone bounds the t
whose tail is below double precision.  The published [lower, upper] holds
the true density with every error term and all float roundoff included
(Ettahri, Ramare and Surel, "Fast multi-precision computation of some Euler
products", Math. Comp. 2021; H. Cohen, "High precision computation of
Hardy-Littlewood constants", 1998).

The same engine, ``_bracketed_product``, serves the density series of
``series``: there each local factor is a polynomial in a second variable z,
cut at z^K, and the log-sum, the tail enclosure and the bracket run per
z-degree, with one exp of a series in z at the end.  ``density()`` is its
case K = 0.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .patterns import (
    ExponentPattern,
    PrimeAwarePattern,
    complement,
    contains,
    min_forbidden,
    normalize_intervals,
)
from .primes import RS_UPPER, _check_budget, is_prime, prime_segments, sieve_primes

DEFAULT_TARGET_ERROR = 1e-8
# Smallest truncation prime.  Beyond it the terms t > _SERIES_DEGREE of every
# tail are below 1e-170, and the tail enclosure is about 1e-15 wide.
MIN_TRUNCATION = 1000

# Degree at which power series in 1/p are cut.
_SERIES_DEGREE = 64
_FSUM_CHUNK = 1 << 16
# Unit roundoff of float64.
_U = 2.0**-53
# Relative error of an fsum of 1 / p^t, each one correctly rounded division
# of exact integers: u of the terms and u of the result.
_HEAD_ERR = 2 * _U * (1 + _U)
# Covers every result that underflows below the normal range and every term
# that ``_delta_quotient`` drops, summed over at most 1e8 primes and 10^4
# terms per prime.
_UNDERFLOW = 2.0**-1000
# Euler-Maclaurin summation for zeta_int: terms n < _EM_TERMS are summed
# directly, then the corrections with B_2 .. B_16; B_18 bounds the remainder.
_EM_TERMS = 16
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
)


class UnreachableTargetError(RuntimeError):
    """The requested bracket width is below what the enclosure can prove.

    ``best`` carries the estimate reached at the truncation prime.
    """

    def __init__(self, message: str, best: "DensityEstimate"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class BoundedValue:
    """A float with a proven absolute error bound."""

    value: float
    error: float


@dataclass(frozen=True)
class LocalFactor:
    """Per-prime term of a density product; always in (0, 1]."""

    p: int
    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"local factor {self.value} outside (0, 1]")


@dataclass(frozen=True)
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
    n_max = _EM_TERMS
    total = sum(Fraction(1, n**s) for n in range(1, n_max))
    total += Fraction(1, (s - 1) * n_max ** (s - 1)) + Fraction(1, 2 * n_max**s)
    rising = Fraction(s)  # s (s+1) ... (s+2k-2)
    factorial = 2  # (2k)!
    for k, bernoulli in enumerate(_BERNOULLI, start=1):
        term = bernoulli * rising / (factorial * n_max ** (s + 2 * k - 1))
        if k < len(_BERNOULLI):
            total += term
        rising *= (s + 2 * k - 1) * (s + 2 * k)
        factorial *= (2 * k + 1) * (2 * k + 2)
    value = float(total)
    return BoundedValue(value, 2 * _U * value + float(abs(term)) * (1 + 4 * _U))


def _mobius(r: int) -> int:
    if r == 1:
        return 1
    result = 1
    n = r
    f = 2
    while f * f <= n:
        if n % f == 0:
            n //= f
            if n % f == 0:
                return 0
            result = -result
        f += 1
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def _prime_zeta(s: int) -> BoundedValue:
    """sum over primes of p^-s, via the Moebius inversion of log zeta.

    P(s) = sum_r mu(r)/r log zeta(rs).  Each log zeta carries the error bar
    of ``zeta_int`` (e / (z - e)) and the roundoff of log, of mu/r and of the
    product; the sum is an fsum.  The terms rs > _SERIES_DEGREE are dropped:
    with log zeta(u) <= zeta(u) - 1 <= 1.04 2^-u for u > 64, they sum to at
    most 1.4 2^(-r0 s) / r0, r0 the first dropped r.
    """
    if s < 2:
        raise ValueError("prime zeta evaluated only for s >= 2")
    terms: list[float] = []
    error = 0.0
    r = 1
    while r * s <= _SERIES_DEGREE:
        mu = _mobius(r)
        if mu != 0:
            z = zeta_int(r * s)
            log_z = math.log(z.value)
            term = mu / r * log_z
            terms.append(term)
            error += (z.error / (z.value - z.error) + 2 * _U * abs(log_z)) / r
            error += 2 * _U * abs(term)
        r += 1
    total = math.fsum(terms)
    error += 1.4 * 2.0 ** (-r * s) / r + _U * abs(total)
    return BoundedValue(total, error)


def prime_sum(k: int) -> BoundedValue:
    """sum over all primes of 1 / (p^k - 1), k >= 2.

    Primes up to ``MIN_TRUNCATION`` are summed directly; the rest is
    sum_{p > P} sum_j p^(-jk), a prime-zeta tail with c_t = 1 for k | t,
    enclosed by ``_tail_enclosure`` exactly as the tail of a density.  Each
    direct term x / (1 - x), x = p^-k <= 1/4, is within 8 ulp (power,
    subtraction, division) and their fsum adds one, so 2^-47 of the direct
    sum covers both; the head sums are those of the density callback.
    """
    if k < 2:
        raise ValueError("prime_sum requires k >= 2")
    P = MIN_TRUNCATION
    primes = sieve_primes(P).primes
    direct = math.fsum([x / (1.0 - x) for x in (_inv_pow(float(p), k) for p in primes)])
    coeffs = [float(t > 0 and t % k == 0) for t in range(_SERIES_DEGREE + 1)]
    heads = {t: math.fsum([1 / p**t for p in primes]) for t in _needed_terms(coeffs, P)}
    lo, mid, hi = _tail_enclosure(coeffs, [0.0] * len(coeffs), P, heads, _HEAD_ERR)
    value = direct + mid
    error = max(hi - mid, mid - max(lo, 0.0)) + 2.0**-47 * direct
    return BoundedValue(value, error + _U * value + _UNDERFLOW)


# ---------------------------------------------------------------------------
# Local factors: delta(p) = 1 - F(p) as one correctly rounded integer quotient

# delta(p) drops its terms p^-e with p^e >= 2^_CAP_BITS.
_CAP_BITS = 1100
# Relative error of log1p(-delta(p)) against log F(p), for every prime and
# local factor of a scalar product; derived at ``_delta``.
_LOG_ERR = 6 * _U * (1 + 4 * _U)


@lru_cache(maxsize=None)
def _delta_exponents(pattern: ExponentPattern) -> tuple[int, ...]:
    """e_0 < e_1 < ... with delta(p) = sum_j (-1)^j p^-e_j under ``pattern``."""
    ivs = complement(pattern).intervals
    return tuple(e for iv in ivs for e in ((iv.lo,) if iv.hi is None else (iv.lo, iv.hi + 1)))


def _delta_quotient(p: int, exps: tuple[int, ...]) -> tuple[int, int]:
    """(num, p^E) with num / p^E = sum_j (-1)^j p^-e_j over the e_j with p^e_j < 2^1100.

    An e_j is kept when below c = ceil(1100 / (b - 1)), b the bit length
    of p; since p >= 2^(b - 1), p^c >= 2^1100.  The dropped terms alternate
    in sign and fall in magnitude, so they sum to at most the first, below
    2^-1100.  E is the last kept exponent, and p^E < 2^2200.
    """
    n = bisect_left(exps, -(-_CAP_BITS // (p.bit_length() - 1)))
    if not n:
        return 0, 1
    num = 1
    for j in range(1, n):
        num = num * p ** (exps[j] - exps[j - 1]) + (-1 if j & 1 else 1)
    return num, p ** exps[n - 1]


def _delta(p: int, exps: tuple[int, ...]) -> float:
    """delta(p) for the exponents of ``_delta_exponents``, correctly rounded.

    The float is within u of the kept terms, which are within 2^-1100 of
    delta (below the normal range the rounding is within 2^-1075 instead);
    ``_UNDERFLOW`` covers both absolute errors.  As delta <= 1/p <= 1/2,
    log1p(-delta~) is within 2u (1 + 2u) delta <= 2u (1 + 2u) |log F| of
    log F; log1p adds 2 ulp (glibc lists 1), 4u of its result, so the
    total is within ``_LOG_ERR`` |log F|.
    """
    num, den = _delta_quotient(p, exps)
    return num / den


def local_factor_interval(p: int, pattern: ExponentPattern) -> LocalFactor:
    """F(p) = (p^E - num) / p^E, one correctly rounded quotient."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    num, den = _delta_quotient(p, _delta_exponents(pattern))
    return LocalFactor(p, (den - num) / den)


# ---------------------------------------------------------------------------
# Deficiency series: 1 - F(p; z) as a polynomial in 1/p and z


def _deficiency(weight, K: int) -> list[list[int]]:
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
    return coef


def _neglog_coeffs(delta: list[list[int]]) -> tuple[list[list[float]], list[list[float]]]:
    """Coefficients of -log(1 - delta) in 1/p and z, truncated, and their error.

    delta[t][k] is the integer coefficient of p^-t z^k, with delta[0] = 0.
    Returns ``(neglog, err)`` indexed [k][t].  For A = 1 - delta = sum_t a_t
    p^-t, the identity x A' = A x (log A)' gives b_t = t [p^-t] log A as

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
    neglog = [[-b[t][k] / t if t else 0.0 for t in range(len(b))] for k in range(K + 1)]
    err = [[_U * abs(c) for c in row] for row in neglog]
    return neglog, err


def _inv_pow(p: float, e: int) -> float:
    """p ** -e for p >= 2; 0 from e = 1076 on, where it rounds to 0 anyway
    and e may be too large for a float."""
    return 0.0 if e >= 1076 else p**-e


# ---------------------------------------------------------------------------
# Bracketed product engine


def _tail_logbound_formula(P: int, m: int, pi_exact: int) -> float:
    """Upper bound on sum_{p > P} -log F(p) when 1 - F(p) <= p^-m, m >= 2.

    The fallback to the prime-zeta enclosure.  Minimum of two proven bounds:
    the integral comparison with all integers, P^(1-m)/(m-1), and a
    prime-counting refinement using pi(x) < 1.25506 x/ln x (x > 1) and the
    exact count pi(P).  Both are scaled by 1/(1 - 2^-m), which dominates the
    -log expansion.  An m above 1076 gives the same floats as 1076, where
    every power below has underflowed to 0, and may be too large for a float.
    """
    m = min(m, 1076)
    scale = 1.0 / (1.0 - 2.0 ** (-m))
    coarse = float(P) ** (1 - m) / (m - 1)
    log_p = math.log(P)
    refined = (m * RS_UPPER / (m - 1)) * float(P) ** (1 - m) / log_p
    refined -= pi_exact * float(P) ** (-m)
    return scale * min(coarse, max(refined, 0.0))


def _integral_tail(P: int, t: int) -> float:
    """Upper bound on sum_{p > P} p^-t: the integral of x^-t from P, rounded up."""
    return float(P) ** (1 - t) / (t - 1) * (1.0 + 2.0**-48)


def _needed_terms(coeffs: list[float], P: int) -> list[int]:
    """The t whose tail P(t) - head_t(P) is worth taking from prime zeta.

    Below double precision the integral bound is as tight as P(t) - head_t,
    whose error is at least a few 1e-16, so those t need no head sum.
    """
    return [t for t, c in enumerate(coeffs) if c and _integral_tail(P, t) > 2 * _U]


def _tail_enclosure(
    coeffs: list[float],
    coeff_err: list[float],
    P: int,
    heads: dict[int, float],
    head_err: float,
) -> tuple[float, float, float]:
    """(lo, mid, hi) with lo <= sum_{p > P} sum_{t >= 2} c_t p^-t <= hi.

    ``coeffs`` holds c_t for t <= _SERIES_DEGREE, each within ``coeff_err``;
    it is one z-degree of ``_neglog_coeffs``, so beyond t = 64 the c_t of
    all z-degrees together are at most 2^t / t in absolute value, the
    coefficients of -log(1 - 2 x^2 / (1 - x)).  ``heads[t]`` is
    sum_{p <= P} p^-t within ``head_err`` relative, for the t of
    ``_needed_terms``.
    Each tail T_t = sum_{p > P} p^-t lies in [0, P^(1-t)/(t-1)], and for a
    needed t also in P(t) - head_t plus or minus its error.  With p >= 3
    the terms t > 64 sum to at most 3/65 sum_{p > P} (2/p)^65, below
    log 2 2^65 P^-64 / 64.  ``mid`` takes each T_t at P(t) - head_t clamped
    into its interval, or 0 when not needed.
    """
    lo_terms: list[float] = []
    mid_terms: list[float] = []
    hi_terms: list[float] = []
    slack = math.log(2.0) * 2.0**65 * float(P) ** -64 / 64 + _UNDERFLOW
    for t, c in enumerate(coeffs):
        if not c:
            continue
        lo, mid, hi = 0.0, 0.0, _integral_tail(P, t)
        if t in heads:
            pz = _prime_zeta(t)
            d = pz.value - heads[t]
            e = pz.error + head_err * heads[t] + _U * abs(d)
            lo, hi = max(lo, d - e), min(hi, d + e)
            mid = min(max(d, lo), hi)
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


@dataclass(frozen=True)
class _Bracket:
    """The coefficients d_0..d_K of a product over all primes, each bracketed."""

    value: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]


def _bracketed_product(
    rows_of,
    log_rel_err,
    deficiency: list[list[int]],
    m: int,
    P: int,
    *,
    head_err: float = _HEAD_ERR,
) -> _Bracket:
    """Enclose d_0..d_K of prod_p F(p; z) mod z^(K+1), F = 1 - delta.

    The factors p <= P are summed as logs and the rest enclosed through
    prime zeta values, per z-degree; ``density()`` is the case K = 0.

    ``rows_of(primes, needed)`` takes an ``array('q')`` of primes and the
    list of t whose head sums the tail needs, and returns per-chunk sums
    ``(logs, majorant, heads)``: ``logs[k]`` the computed sum over the
    chunk of the coefficient of z^k in log F(p; z), k = 0..K; ``majorant``
    K nonnegative sums; ``heads`` the sums of p^-t for the needed t, each
    within ``head_err`` relative.  ``logs[0]`` sums terms <= 0 and lies
    within ``log_rel_err[0]`` times its own magnitude of the exact sum; for
    k >= 1, ``logs[k]`` lies within ``log_rel_err[k]`` times
    ``majorant[k - 1]`` of it.  ``deficiency`` gives delta(p; z) as
    integers per p^-t z^k, t <= 64, as ``_neglog_coeffs`` takes them,
    for every p > P, and there 0 <= delta(p; 0) <= p^-m with m >= 2; a
    prime p <= P may have a factor of its own, as ``rows_of`` gives it.

    The chunk sums are added by fsum, which rounds once, within u of its
    result (Shewchuk, Discrete Comput. Geom. 18, 1997).  For degree 0 the computed sum G of chunk sums L_j has
    |G - sum_j L_j| <= u |G|, and sum_j |L_j| = |sum_j L_j| <= (1 + u) |G|
    as all L_j <= 0, so G is within (r (1 + u) + u) |G| of the exact log
    sum, r = ``log_rel_err[0]``.  A caller whose chunk sums are themselves
    fsums of logs within e relative has r = (u + e / (1 - e)) / (1 - u),
    so the whole bound is (e + 2u) |G| to first order.

    Degree 0 is bracketed by exp of its log enclosure.  For k >= 1, with
    S = log of the whole product, S~ its computed centre and |S - S~| <= E
    coefficient by coefficient,
        |d - e^S~_0 exp(S~ - S~_0)| << e^S~_0 exp(|S~ - S~_0|) (exp(E) - 1)
    as majorant series, since every coefficient of the right side is
    nonnegative.  Both series come from ``_exp_series``.
    """
    K = len(deficiency[0]) - 1
    # K + 1 log rows and K majorant rows per prime share one chunk budget
    chunk = max(_FSUM_CHUNK // (2 * K + 1), 1)
    neglog, neglog_err = _neglog_coeffs(deficiency)
    needed = sorted({t for k in range(K + 1) for t in _needed_terms(neglog[k], P)})
    parts = []
    n_primes = 0
    for seg in prime_segments(P):
        n_primes += len(seg)
        for i in range(0, len(seg), chunk):
            parts.append(rows_of(seg[i : i + chunk], needed))
    heads = {t: math.fsum([h[i] for _, _, h in parts]) for i, t in enumerate(needed)}
    # the fsum over the chunks rounds once more
    head_err = head_err * (1 + _U) + _U
    generic = [math.fsum([logs[k] for logs, _, _ in parts]) for k in range(K + 1)]
    tails = [
        _tail_enclosure(neglog[k], neglog_err[k], P, heads, head_err) for k in range(K + 1)
    ]

    log_sum = generic[0]
    roundoff = (log_rel_err[0] * (1 + _U) + _U) * abs(log_sum) + _UNDERFLOW

    tail_lo, tail_mid, tail_hi = tails[0]
    tail_lo = max(tail_lo, 0.0)
    tail_hi = min(tail_hi, _tail_logbound_formula(P, m, n_primes))
    tail_mid = min(max(tail_mid, tail_lo), tail_hi)
    # the sums below and exp round by at most a few ulp
    roundoff += 4 * _U * (abs(log_sum) + tail_hi)
    upper = math.exp(math.fsum([log_sum, roundoff, -tail_lo])) * (1.0 + 2.0**-50)
    lower = math.exp(math.fsum([log_sum, -roundoff, -tail_hi])) * (1.0 - 2.0**-50)
    centre = math.exp(log_sum - tail_mid)
    value = min(max(centre, lower), upper)
    if K == 0:
        return _Bracket((value,), (lower,), (upper,))

    # |S - S~| per degree: the log-sum roundoff (the chunk sums against
    # their majorant, and the fsum within u of its result), the tail's
    # half-width, and one rounding of S~.
    s = [0.0] * (K + 1)
    err = [0.0] * (K + 1)
    s0 = log_sum - tail_mid
    e0 = (roundoff + max(tail_hi - tail_mid, tail_mid - tail_lo)) * (1.0 + 2.0**-50)
    e0 += 2 * _U * abs(s0)
    for k in range(1, K + 1):
        lo, mid, hi = tails[k]
        bound = math.fsum([majorant[k - 1] for _, majorant, _ in parts])
        sum_err = log_rel_err[k] * (1 + _U) * bound + _U * abs(generic[k]) + _UNDERFLOW
        s[k] = generic[k] - mid
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
        radius = centre * spread * (1.0 + 8 * eps) + _UNDERFLOW
        mid = centre * series[k]
        pad = radius * (1.0 + 2.0**-50) + 2 * _U * abs(mid)
        lowers.append(max(mid - pad, 0.0))
        uppers.append(mid + pad)
        values.append(min(max(mid, lowers[-1]), uppers[-1]))
    return _Bracket(tuple(values), tuple(lowers), tuple(uppers))


def _estimate(
    delta_of,
    deficiency: list[list[int]],
    m: int,
    target_error: float,
    *,
    start: int = MIN_TRUNCATION,
    truncation_prime: int | None = None,
) -> DensityEstimate:
    """prod_p F(p) with F = 1 - delta and a rigorous bracket.

    ``delta_of`` maps a prime to delta(p) within the error of ``_delta``;
    beyond ``start`` it follows ``deficiency`` and ``m`` as
    ``_bracketed_product`` takes them.  The product is evaluated once, at
    ``truncation_prime`` or else at ``start``; without a pinned prime, a
    bracket wider than ``target_error`` raises UnreachableTargetError.
    """
    if truncation_prime is not None and truncation_prime < start:
        raise ValueError(
            f"truncation prime {truncation_prime} below required minimum {start}"
        )
    P = start if truncation_prime is None else truncation_prime
    # before any float of P: a P of hundreds of digits would overflow
    _check_budget(P)

    def rows_of(primes: array, needed: list[int]) -> tuple:
        logs = math.fsum([math.log1p(-delta_of(p)) for p in primes])
        return [logs], [], [math.fsum([1 / p**t for p in primes]) for t in needed]

    # the chunk fsum rounds once more; see _bracketed_product
    chunk_rel = (_U + _LOG_ERR / (1 - _LOG_ERR)) / (1 - _U)
    b = _bracketed_product(rows_of, (chunk_rel,), deficiency, m, P)
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


def density(
    pap: PrimeAwarePattern,
    target_error: float = DEFAULT_TARGET_ERROR,
    *,
    truncation_prime: int | None = None,
) -> DensityEstimate:
    """Natural density of {n : every prime exponent allowed by ``pap``}.

    The product is evaluated once, at max(MIN_TRUNCATION, largest exceptional
    prime + 1), and a bracket wider than ``target_error`` raises
    UnreachableTargetError; pass ``truncation_prime`` to pin the prime
    instead, in which case no width check is applied.  Every prime's factor,
    exceptional or not, is 1 - ``_delta`` of its own pattern.  If the default
    pattern forbids exponent 1 the product diverges to zero and the estimate
    is exactly 0 with ``diverges_to_zero`` set.
    """
    _check_target(target_error)
    m = min_forbidden(pap.default)
    if m == 1:
        return DensityEstimate(0.0, 0.0, 0.0, 2, 0.0, True)
    exceptions = pap.exceptions
    last = max(exceptions, default=0)
    if m is None:
        return _finite_product(exceptions, max(last, 2))

    default = _delta_exponents(pap.default)

    def delta_of(p: int) -> float:
        pattern = exceptions.get(p) if p <= last else None
        return _delta(p, default if pattern is None else _delta_exponents(pattern))

    return _estimate(
        delta_of,
        _deficiency(lambda t: not contains(pap.default, t), 0),
        m,
        target_error,
        start=max(MIN_TRUNCATION, last + 1),
        truncation_prime=truncation_prime,
    )


def _finite_product(exceptions, truncation_prime: int) -> DensityEstimate:
    """The product of the exceptional factors, when the default allows everything.

    Their logs are summed as in ``_estimate``, with no tail: each is within
    ``_LOG_ERR`` of its own magnitude and all are <= 0, so the fsum G is
    within (_LOG_ERR + 2u) |G| of the exact sum, and 4u |G| more cover the
    sums and exp below, as in ``_bracketed_product``.  Every factor is at
    most 1, and so is the product.
    """
    rules = [(p, e) for p, pattern in exceptions.items() if (e := _delta_exponents(pattern))]
    if not rules:
        return DensityEstimate(1.0, 1.0, 1.0, truncation_prime, 0.0)
    log_sum = math.fsum([math.log1p(-_delta(p, e)) for p, e in rules])
    err = (_LOG_ERR + 6 * _U) * abs(log_sum) + _UNDERFLOW
    upper = min(math.exp(log_sum + err) * (1.0 + 2.0**-50), 1.0)
    lower = math.exp(log_sum - err) * (1.0 - 2.0**-50)
    value = min(max(math.exp(log_sum), lower), upper)
    return DensityEstimate(value, lower, upper, truncation_prime, math.log(upper / lower))


# ---------------------------------------------------------------------------
# Closed-form catalog


def _zeta_quotient(numerator: BoundedValue, k: int, truncation_prime: int = 1) -> DensityEstimate:
    """numerator / zeta(k), bracketed by both error bars and a 1e-15 relative pad."""
    z = zeta_int(k)
    value = numerator.value / z.value
    lower = (numerator.value - numerator.error) / (z.value + z.error) * (1 - 1e-15)
    upper = (numerator.value + numerator.error) / (z.value - z.error) * (1 + 1e-15)
    lower = min(lower, value)
    upper = max(upper, value)
    if lower <= 0.0:
        raise ValueError("closed-form bounds must stay positive")
    tail_logbound = math.log(upper / lower) if upper > lower else 0.0
    lower = upper * math.exp(-tail_logbound)
    value = min(max(value, lower), upper)
    return DensityEstimate(value, lower, upper, truncation_prime, tail_logbound)


# The catalog names some products twice (squarefree_or_high k=3 is skip_one
# k=2, exp_odd is mod_periodic ell=2); these caches compute each once.
@lru_cache(maxsize=None)
def _interval_density(pattern: ExponentPattern, target_error: float) -> DensityEstimate:
    return density(PrimeAwarePattern(default=pattern), target_error)


@lru_cache(maxsize=None)
def _mod_periodic(ell: int, target_error: float) -> DensityEstimate:
    if ell == 1:
        return DensityEstimate(1.0, 1.0, 1.0, 2, 0.0)

    def delta(p: int) -> float:
        # p^-2 - p^-(ell+1) + p^-(ell+2) - ..., cut as in _delta_quotient
        if (ell + 1) * (p.bit_length() - 1) >= _CAP_BITS:
            return 1 / p**2
        return (p ** (ell - 1) - 1) / (p * (p**ell - 1))

    # weight 1 on the forbidden exponents, those not = 1 mod ell
    deficiency = _deficiency(lambda t: (t - 1) % ell != 0, 0)
    return _estimate(delta, deficiency, 2, target_error)


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

    ``squarefree_or_high`` and ``skip_one`` are interval patterns and are
    computed by ``density()``; ``exp_odd`` is ``mod_periodic`` with ell = 2,
    an Euler product over its own closed-form local factor.  The other forms
    are zeta quotients and serve as independent cross-checks of ``density()``.

    Forms and parameters:

    - ``powerfree`` (k >= 1): exponents in [1, k]; density 1/zeta(k+1).
    - ``squarefree_or_high`` (k >= 2): exponents in {1} or >= k;
      prod (1 - p^-2 + p^-k).
    - ``skip_one`` (k >= 2): every exponent except k;
      prod (1 - p^-k + p^-(k+1)).
    - ``exp_odd``: every exponent odd; prod (1 - 1/(p(p+1))).
    - ``mod_periodic`` (ell >= 1): every exponent = 1 mod ell;
      prod (1 - (p^(ell-1) - 1)/(p (p^ell - 1))).
    - ``ex1`` (q prime, k >= 2): k-free and coprime to every prime <= q;
      prod_{p<=q}(1 - 1/p) / (zeta(k) prod_{p<=q}(1 - p^-k)).
    - ``ex2`` (primes=S, k >= 2): k-free and coprime to the primes in S;
      (1/zeta(k)) prod_{q in S} (q^k - q^(k-1)) / (q^k - 1).
    - ``ex3_single`` (p prime, k >= 2): p unrestricted, everything else < k;
      (1/zeta(k)) p^k / (p^k - 1).
    - ``ex3`` (k >= 2): at most one prime with exponent >= k;
      (1/zeta(k)) (1 + sum_p 1/(p^k - 1)).
    """
    _check_target(target_error)
    if form == "powerfree":
        if k is None or k < 1:
            raise ValueError("powerfree needs k >= 1")
        return _zeta_quotient(BoundedValue(1.0, 0.0), k + 1)

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
        num = Fraction(1)
        den = Fraction(1)
        for r in sieve_primes(q).primes.tolist():
            num *= Fraction(r - 1, r)
            den *= 1 - Fraction(1, r**k)
        ratio = num / den
        return _zeta_quotient(BoundedValue(float(ratio), float(ratio) * 1e-15), k)

    if form == "ex2":
        if primes is None or k is None or k < 2:
            raise ValueError("ex2 needs a prime set and k >= 2")
        prod = Fraction(1)
        for r in sorted(set(primes)):
            if not is_prime(r):
                raise ValueError(f"ex2 set contains non-prime {r}")
            prod *= Fraction(r**k - r ** (k - 1), r**k - 1)
        return _zeta_quotient(BoundedValue(float(prod), float(prod) * 1e-15), k)

    if form == "ex3_single":
        if p is None or not is_prime(p) or k is None or k < 2:
            raise ValueError("ex3_single needs prime p and k >= 2")
        ratio = Fraction(p**k, p**k - 1)
        return _zeta_quotient(BoundedValue(float(ratio), float(ratio) * 1e-15), k)

    if form == "ex3":
        if k is None or k < 2:
            raise ValueError("ex3 needs k >= 2")
        s = prime_sum(k)
        return _zeta_quotient(
            BoundedValue(1.0 + s.value, s.error + 1e-15),
            k,
            truncation_prime=MIN_TRUNCATION,
        )

    raise ValueError(f"unknown closed form {form!r}")
