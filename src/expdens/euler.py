"""Euler products over primes with proven brackets.

The density of {n : every prime exponent of n is allowed} is an infinite
product of per-prime local factors.  Two equivalent closed forms exist for
one local factor:

  interval form:    F(p) = (1 - 1/p) + sum_j (p^-a_j - p^-(b_j+1))
                    over the allowed intervals [a_j, b_j] (the second term
                    drops when b_j is unbounded);
  complement form:  F(p) = 1 - (1 - 1/p) * sum over forbidden exponents i
                    of p^-i, with the forbidden sum in closed geometric form.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

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
# Covers every result that underflows below the normal range, summed over at
# most 1e8 primes and 10^4 terms per prime.
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
    direct term is within 13 ulp (power, subtraction, reciprocal) and their
    pairwise sum adds at most 32 ulp, so 2^-47 of the direct sum covers both.
    """
    if k < 2:
        raise ValueError("prime_sum requires k >= 2")
    P = MIN_TRUNCATION
    pf = sieve_primes(P).primes.astype(np.float64)
    with np.errstate(over="ignore"):
        direct = float(np.sum(1.0 / (pf**k - 1.0)))
    coeffs = np.zeros(_SERIES_DEGREE + 1)
    coeffs[k::k] = 1.0
    heads = {t: float(np.sum(pf ** -float(t))) for t in _needed_terms(coeffs, P)}
    lo, mid, hi = _tail_enclosure(coeffs, np.zeros_like(coeffs), P, heads)
    value = direct + mid
    error = max(hi - mid, mid - max(lo, 0.0)) + 2.0**-47 * direct
    return BoundedValue(value, error + _U * value + _UNDERFLOW)


# ---------------------------------------------------------------------------
# Scalar local factors (exact rational arithmetic, rounded once to float)


def _interval_factor_fraction(p: int, pattern: ExponentPattern) -> Fraction:
    f = Fraction(p - 1, p)
    for iv in pattern.intervals:
        f += Fraction(1, p**iv.lo)
        if iv.hi is not None:
            f -= Fraction(1, p ** (iv.hi + 1))
    return f


def local_factor_interval(p: int, pattern: ExponentPattern) -> LocalFactor:
    """Local factor from the allowed intervals, sentinel exponent-0 included."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    return LocalFactor(p, float(_interval_factor_fraction(p, pattern)))


# ---------------------------------------------------------------------------
# Deficiency series: 1 - F(p; z) as a polynomial in 1/p and z


def _deficiency(weight, K: int) -> np.ndarray:
    """Integers u with 1 - F(p; z) = sum_{t, k} u[t, k] p^-t z^k, t <= 64, k <= K.

    ``weight`` maps t >= 1 to its z-degree w(t), an int or bool; w(0) = 0.
    F(p; z) = (1 - 1/p) sum_{i >= 0} z^w(i) p^-i = 1 - sum_t (z^w(t-1) - z^w(t)) p^-t,
    so u[t, w(t-1)] += 1 and u[t, w(t)] -= 1 for degrees up to K.  A density
    is the case K = 0 with weight 1 on the forbidden exponents.
    """
    coef = np.zeros((_SERIES_DEGREE + 1, K + 1), dtype=np.int64)
    prev = 0
    for t in range(1, _SERIES_DEGREE + 1):
        cur = int(weight(t))  # a bool would index numpy as a mask
        if prev <= K:
            coef[t, prev] += 1
        if cur <= K:
            coef[t, cur] -= 1
        prev = cur
    return coef


def _neglog_coeffs(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of -log(1 - delta) in 1/p and z, truncated, and their error.

    delta[t, k] is the coefficient of p^-t z^k; rows 0 and 1 are zero and
    every other row holds at most two entries, each -1 or 1.  The powers
    delta^j are exact int64 arithmetic: the entries of row t of delta^j sum
    in absolute value to at most [x^t] (2 x^2 / (1 - x))^j < 2^61 up to
    degree 64.  A power converts to float exactly below 2^53 and with one
    rounding above it; the divisions by j and the additions round, fewer
    than 64 steps.  So coefficient (t, k) is within 2^-47 sum_j
    |[x^t z^k] delta^j| / j, plus 2^-52 times that sum over the powers that
    reach 2^53.  A z-degree k <= K of delta^j at x^t is at most lambda t,
    lambda the largest k/t in delta, so the powers are carried only that
    wide.
    """
    size, cols = delta.shape
    entries = [(int(t), int(k)) for t, k in zip(*np.nonzero(delta))]
    width = 1 + min(cols - 1, max((_SERIES_DEGREE * k // t for t, k in entries), default=0))
    power = delta[:, :width].copy()
    out = power.astype(np.float64)
    magnitude = np.abs(out)
    rounded = np.zeros_like(out)
    j = 2
    while True:
        # power * delta, exactly: one shifted add per entry of delta
        product = np.zeros_like(power)
        for t, k in entries:
            product[t:, k:] += delta[t, k] * power[: size - t, : width - k]
        power = product
        if not power.any():
            break
        term = np.abs(power.astype(np.float64)) / j
        out += power.astype(np.float64) / j
        magnitude += term
        rounded += np.where(np.abs(power) >= 2**53, term, 0.0)
        j += 1
    neglog = np.zeros((size, cols))
    err = np.zeros((size, cols))
    neglog[:, :width] = out
    err[:, :width] = 2.0**-47 * magnitude + 2.0**-52 * rounded
    return neglog, err


def _inverse_power(pf: np.ndarray, e: int) -> np.ndarray:
    """pf ** -e, left at 0 wherever p^e >= 2^1076, as it rounds to 0 there.

    Results below the normal range take libm's slow path, about 17 times the
    cost of a normal power.  From e = 1076 on, e may be too large for a float.
    """
    if e >= 1076:
        return np.zeros(pf.shape)
    bound = 2.0 ** min(1076 / e, 1000)
    return np.power(pf, -float(e), out=np.zeros(pf.shape), where=pf < bound)


def _delta_from_intervals(forbidden: tuple):
    """delta(p) = sum over forbidden [lo, hi] of p^-lo - p^-(hi+1), and its log error.

    Returns the array function and a bound on the relative error of
    log1p(-delta) as computed.  Each power is within 4 ulp and n terms sum
    with n roundings, while sum |terms| <= 6 delta (the first forbidden
    interval gives delta >= p^-m (1 - 1/p)), so delta is within
    6 (n + 8) u; log1p adds 4 ulp and |log F| >= delta, giving (8n + 72) u.
    """

    def delta(pf: np.ndarray) -> np.ndarray:
        d = np.zeros_like(pf)
        for iv in forbidden:
            d += _inverse_power(pf, iv.lo)
            if iv.hi is not None:
                d -= _inverse_power(pf, iv.hi + 1)
        return d

    n_terms = sum(1 if iv.hi is None else 2 for iv in forbidden)
    return delta, (8 * n_terms + 72) * _U


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


def _needed_terms(coeffs: np.ndarray, P: int) -> list[int]:
    """The t whose tail P(t) - head_t(P) is worth taking from prime zeta.

    Below double precision the integral bound is as tight as P(t) - head_t,
    whose error is at least a few 1e-16, so those t need no head sum.
    """
    return [int(t) for t in np.flatnonzero(coeffs) if _integral_tail(P, int(t)) > 2 * _U]


def _tail_enclosure(
    coeffs: np.ndarray, coeff_err: np.ndarray, P: int, heads: dict[int, float]
) -> tuple[float, float, float]:
    """(lo, mid, hi) with lo <= sum_{p > P} sum_{t >= 2} c_t p^-t <= hi.

    ``coeffs`` holds c_t for t <= _SERIES_DEGREE, each within ``coeff_err``;
    it is one z-degree of ``_neglog_coeffs``, so beyond t = 64 the c_t of
    all z-degrees together are at most 2^t / t in absolute value, the
    coefficients of -log(1 - 2 x^2 / (1 - x)).  ``heads[t]`` is
    sum_{p <= P} p^-t within 2^-47 relative, for the t of ``_needed_terms``.
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
    # a c_t that rounded to 0 still carries its error bar
    for t in np.flatnonzero((coeffs != 0) | (coeff_err != 0)):
        t = int(t)
        c = float(coeffs[t])
        lo, mid, hi = 0.0, 0.0, _integral_tail(P, t)
        if t in heads:
            pz = _prime_zeta(t)
            d = pz.value - heads[t]
            e = pz.error + 2.0**-47 * heads[t] + _U * abs(d)
            lo, hi = max(lo, d - e), min(hi, d + e)
            mid = min(max(d, lo), hi)
        lo_terms.append(c * (lo if c > 0 else hi))
        mid_terms.append(c * mid)
        hi_terms.append(c * (hi if c > 0 else lo))
        # the products and the fsum each round by at most one unit
        slack += (float(coeff_err[t]) + 2 * _U * abs(c)) * hi
    return (
        math.fsum(lo_terms) - slack,
        math.fsum(mid_terms),
        math.fsum(hi_terms) + slack,
    )


def _exp_series(s: np.ndarray) -> np.ndarray:
    """Coefficients of exp(s[1] z + ... + s[K] z^K) up to z^K; s[0] is ignored.

    By the recurrence k e_k = sum_{j=1..k} j s_j e_{k-j}.  Each e_k takes
    at most k + 2 roundings, so its error is within (K + 1)(K + 8) u of
    the same recurrence run on |s|, the majorant exp(|s|).
    """
    js = np.arange(s.size) * s
    out = np.zeros(s.size)
    out[0] = 1.0
    for k in range(1, s.size):
        out[k] = np.dot(js[1 : k + 1], out[k - 1 :: -1]) / k
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
    deficiency: np.ndarray,
    m: int,
    P: int,
    *,
    exceptional: dict[int, float] | None = None,
) -> _Bracket:
    """Enclose d_0..d_K of prod_p F(p; z) mod z^(K+1), F = 1 - delta.

    The factors p <= P are summed as logs and the rest enclosed through
    prime zeta values, per z-degree; ``density()`` is the case K = 0.

    ``rows_of`` maps a float64 array of n primes to ``(logs, majorant)``:
    ``logs`` is (K + 1, n), row k holding the computed coefficient of z^k in
    log F(p; z), and ``majorant`` is (K, n) and nonnegative.  Row 0 must be
    <= 0 and within ``log_rel_err[0]`` relative; for k >= 1 row k must lie
    within ``log_rel_err[k]`` times majorant row k - 1 of the exact value,
    and within 1 + ``log_rel_err[k]`` times it in absolute value.
    ``deficiency`` gives delta(p; z) as integers per p^-t z^k, t <= 64, as
    ``_neglog_coeffs`` takes them.  Beyond every exceptional prime,
    0 <= delta(p; 0) <= p^-m with m >= 2.  Exceptional primes contribute
    fixed factors, constant in z, and are excluded from the rows.

    Degree 0 is bracketed by exp of its log enclosure.  For k >= 1, with
    S = log of the whole product, S~ its computed centre and |S - S~| <= E
    coefficient by coefficient,
        |d - e^S~_0 exp(S~ - S~_0)| << e^S~_0 exp(|S~ - S~_0|) (exp(E) - 1)
    as majorant series, since every coefficient of the right side is
    nonnegative.  Both series come from ``_exp_series``.
    """
    exceptional = exceptional or {}
    if any(v <= 0.0 for v in exceptional.values()):
        # A zero factor would make the whole product zero exactly.
        raise ValueError("exceptional factors must be positive")
    K = deficiency.shape[1] - 1
    # K + 1 log rows and K majorant rows per prime share one chunk budget
    chunk = max(_FSUM_CHUNK // (2 * K + 1), 1)
    neglog, neglog_err = _neglog_coeffs(deficiency)
    needed = sorted({t for k in range(K + 1) for t in _needed_terms(neglog[:, k], P)})
    exc_arr = np.array(sorted(exceptional), dtype=np.int64)
    log_parts: list[np.ndarray] = []
    majorant_parts: list[np.ndarray] = []
    head_parts: dict[int, list[float]] = {t: [] for t in needed}
    n_primes = 0
    for seg in prime_segments(P):
        # prime zeta runs over all primes, so the heads count the
        # exceptional ones even though the product takes their own factors
        for t in needed:
            head_parts[t].append(float(np.sum(seg.astype(np.float64) ** -float(t))))
        n_primes += seg.size
        if exc_arr.size and seg[0] <= exc_arr[-1]:
            seg = seg[~np.isin(seg, exc_arr)]
        # floats chunk by chunk: a (2K + 1, chunk) row block is the largest array
        for i in range(0, seg.size, chunk):
            logs, majorant = (
                np.sum(rows, axis=1) for rows in rows_of(seg[i : i + chunk].astype(np.float64))
            )
            log_parts.append(logs)
            majorant_parts.append(majorant)
    heads = {t: math.fsum(parts) for t, parts in head_parts.items()}
    generic = [math.fsum(p[k] for p in log_parts) for k in range(K + 1)]
    tails = [_tail_enclosure(neglog[:, k], neglog_err[:, k], P, heads) for k in range(K + 1)]

    # Every log is <= 0, so |generic| is the sum of their magnitudes.  Each
    # is within log_rel_err; numpy's pairwise chunk sums add at most 32 ulp
    # and the fsum one.  An exceptional factor is rounded once (one ulp of
    # the log) and its log is within 2 ulp.
    exc_logs = [math.log(v) for v in exceptional.values()]
    exc_sum = math.fsum(exc_logs)
    log_sum = generic[0] + exc_sum
    roundoff = (log_rel_err[0] + 34 * _U) * abs(generic[0]) + _UNDERFLOW
    roundoff += 2 * _U * len(exc_logs) + 3 * _U * abs(exc_sum)

    tail_lo, tail_mid, tail_hi = tails[0]
    tail_lo = max(tail_lo, 0.0)
    tail_hi = min(tail_hi, _tail_logbound_formula(P, m, n_primes))
    tail_mid = min(max(tail_mid, tail_lo), tail_hi)
    # the additions below and exp round by at most a few ulp
    roundoff += 4 * _U * (abs(log_sum) + tail_hi)
    upper = math.exp(log_sum + roundoff - tail_lo) * (1.0 + 2.0**-50)
    lower = math.exp(log_sum - roundoff - tail_hi) * (1.0 - 2.0**-50)
    centre = math.exp(log_sum - tail_mid)
    value = min(max(centre, lower), upper)
    if K == 0:
        return _Bracket((value,), (lower,), (upper,))

    # |S - S~| per degree: the log-sum roundoff (from the majorant sums, for
    # k >= 1), the tail's half-width, and one rounding of S~.
    s = np.zeros(K + 1)
    err = np.zeros(K + 1)
    s0 = log_sum - tail_mid
    e0 = (roundoff + max(tail_hi - tail_mid, tail_mid - tail_lo)) * (1.0 + 2.0**-50)
    e0 += 2 * _U * abs(s0)
    for k in range(1, K + 1):
        lo, mid, hi = tails[k]
        rel = log_rel_err[k]
        bound = math.fsum(p[k - 1] for p in majorant_parts)
        head_err = (rel + 34 * _U * (1 + rel)) * (1 + 34 * _U) * bound + _UNDERFLOW
        s[k] = generic[k] - mid
        err[k] = (head_err + max(hi - mid, mid - lo)) * (1.0 + 2.0**-50) + 2 * _U * abs(s[k])
    series = _exp_series(s)
    majorant = _exp_series(np.abs(s))
    excess = math.exp(e0) * _exp_series(err)  # exp(E) - 1
    excess[0] = math.expm1(e0)
    eps = (K + 1) * (K + 8) * _U
    spread = np.convolve(majorant, excess)[: K + 1] + eps * majorant
    # 8 eps covers the float error of both series, their product and exp
    radius = centre * spread * (1.0 + 8 * eps) + _UNDERFLOW
    values, lowers, uppers = [value], [lower], [upper]
    for k in range(1, K + 1):
        mid = centre * float(series[k])
        pad = float(radius[k]) * (1.0 + 2.0**-50) + 2 * _U * abs(mid)
        lowers.append(max(mid - pad, 0.0))
        uppers.append(mid + pad)
        values.append(min(max(mid, lowers[-1]), uppers[-1]))
    return _Bracket(tuple(values), tuple(lowers), tuple(uppers))


def _estimate(
    delta_of,
    log_rel_err: float,
    deficiency: np.ndarray,
    m: int,
    target_error: float,
    *,
    exceptional: dict[int, float] | None = None,
    truncation_prime: int | None = None,
) -> DensityEstimate:
    """prod_p F(p) with F = 1 - delta and a rigorous bracket.

    ``delta_of`` maps a float64 array of primes to 1 - F(p), and log1p of
    its negation must be within ``log_rel_err`` relative; the other inputs
    are those of ``_bracketed_product``.  The product is evaluated once, at
    ``truncation_prime`` or else at max(MIN_TRUNCATION, largest exceptional
    prime + 1); without a pinned prime, a bracket wider than
    ``target_error`` raises UnreachableTargetError.
    """
    exceptional = exceptional or {}
    start = max(MIN_TRUNCATION, max(exceptional, default=0) + 1)
    if truncation_prime is not None and truncation_prime < start:
        raise ValueError(
            f"truncation prime {truncation_prime} below required minimum {start}"
        )
    P = start if truncation_prime is None else truncation_prime
    # before any float of P: a P of hundreds of digits would overflow
    _check_budget(P)

    def rows_of(pf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.log1p(-delta_of(pf))[None, :], np.empty((0, pf.size))

    b = _bracketed_product(
        rows_of, (log_rel_err,), deficiency, m, P, exceptional=exceptional
    )
    lower, upper = b.lower[0], b.upper[0]
    est = DensityEstimate(b.value[0], lower, upper, P, math.log(upper / lower))
    if truncation_prime is None and est.width > target_error:
        raise UnreachableTargetError(
            f"bracket width {est.width:.3e} > target {target_error:.3e} "
            f"at truncation prime {P}",
            est,
        )
    return est


def _exact_estimate(value: Fraction, truncation_prime: int = 1) -> DensityEstimate:
    """Estimate for an exactly known rational density (finite products)."""
    v = float(value)
    if v == 0.0:
        return DensityEstimate(0.0, 0.0, 0.0, truncation_prime, 0.0, True)
    if value == 1:
        return DensityEstimate(1.0, 1.0, 1.0, truncation_prime, 0.0)
    # One float rounding of an exact rational: bracket by a relative ulp pad.
    tail_logbound = 2.0**-50
    upper = v * (1.0 + 2.0**-51)
    lower = upper * math.exp(-tail_logbound)
    return DensityEstimate(v, lower, upper, truncation_prime, tail_logbound)


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
    instead, in which case no width check is applied.  If the default
    pattern forbids exponent 1 the product diverges to zero and the estimate
    is exactly 0 with ``diverges_to_zero`` set.
    """
    _check_target(target_error)
    m = min_forbidden(pap.default)
    if m == 1:
        return DensityEstimate(0.0, 0.0, 0.0, 2, 0.0, True)

    exceptional = {
        p: local_factor_interval(p, pat).value for p, pat in pap.exceptions.items()
    }
    if m is None:
        # Only finitely many factors differ from 1; the product is exact.
        prod = Fraction(1)
        for p, pat in sorted(pap.exceptions.items()):
            prod *= _interval_factor_fraction(p, pat)
        return _exact_estimate(prod, max(pap.exceptions, default=2))

    delta, log_rel_err = _delta_from_intervals(complement(pap.default).intervals)
    return _estimate(
        delta,
        log_rel_err,
        _deficiency(lambda t: not contains(pap.default, t), 0),
        m,
        target_error,
        exceptional=exceptional,
        truncation_prime=truncation_prime,
    )


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

    def delta(pf: np.ndarray) -> np.ndarray:
        inv = 1.0 / pf
        return (inv - inv**ell) / (pf * (1.0 - inv**ell))

    # With inv <= 1/2 and ell >= 2, inv^ell <= inv / 2 carries at most 5u inv
    # of error, so the numerator is within 13 u, the denominator within 6 u
    # and delta within 20 u; log1p then gives (4/3) 20 u + 8 u < 36 u.
    log_rel_err = 64 * _U
    # weight 1 on the forbidden exponents, those not = 1 mod ell
    deficiency = _deficiency(lambda t: (t - 1) % ell != 0, 0)
    return _estimate(delta, log_rel_err, deficiency, 2, target_error)


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
