"""Shared test utilities: independent brute-force oracles and generators.

Everything here deliberately avoids the library's sieve and product code
paths, so agreement between a helper and the library is genuine evidence.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import hypothesis.strategies as st
import mpmath
import numpy as np

from expdens.euler import LocalFactor
from expdens.patterns import (
    ExponentInterval,
    ExponentPattern,
    PrimeAwarePattern,
    complement,
    min_forbidden,
    normalize_intervals,
)
from expdens.series import DivergentWeightError, ExponentWeight


def brute_factorize(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization, no tables."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class SpfTable:
    """``spf[n]`` is the smallest prime factor of n, for 2 <= n <= limit."""

    limit: int
    spf: np.ndarray


def spf_sieve(limit: int) -> SpfTable:
    """Smallest-prime-factor table for every n in [2, limit]."""
    if limit < 2:
        raise ValueError("sieve limit must be >= 2")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    untouched = np.flatnonzero(spf == 0)
    untouched = untouched[untouched >= 2]
    spf[untouched] = untouched  # remaining entries are the primes themselves
    return SpfTable(limit, spf)


def factorize(n: int, table: SpfTable) -> list[tuple[int, int]]:
    """Prime factorization of n as (prime, exponent) pairs, primes ascending."""
    if not 2 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [2, {table.limit}]")
    spf = table.spf
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


# Largest x whose factorizations brute_g_counts keeps between calls.
BRUTE_LIMIT = 2 * 10**4


@lru_cache(maxsize=1)
def _factor_table() -> tuple[tuple[tuple[int, int], ...], ...]:
    table = spf_sieve(BRUTE_LIMIT)
    return ((),) + tuple(tuple(factorize(n, table)) for n in range(2, BRUTE_LIMIT + 1))


def brute_g_counts(x: int, weight, K: int) -> list[int]:
    """Counts of n <= x by g(n) = sum of weight(p, alpha): k = 0..K, then overflow.

    Every n is factored from a smallest-prime-factor table.
    """
    weight = cache(weight)
    if x <= BRUTE_LIMIT:
        rows = _factor_table()[:x]
    else:
        table = spf_sieve(x)
        rows = (factorize(n, table) if n > 1 else () for n in range(1, x + 1))
    counts = [0] * (K + 2)
    for factors in rows:
        counts[min(sum(weight(p, a) for p, a in factors), K + 1)] += 1
    return counts


def partial_euler_product(local_factor, limit: int = 2 * 10**6) -> float:
    """prod over primes p <= limit of local_factor(p), from its own sieve.

    ``local_factor`` maps a float64 array of primes to their factors.  Every
    factor is below 1, so the result lies above the infinite product.
    """
    p = primes_upto(limit).astype(np.float64)
    return float(np.exp(np.sum(np.log(local_factor(p)))))


def primes_upto(limit: int) -> np.ndarray:
    """Ascending int64 primes p <= limit, from a plain sieve of Eratosthenes."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def local_factor_general(p: int, pattern: ExponentPattern) -> LocalFactor:
    """Local factor via the forbidden exponents: 1 - (1 - 1/p) * sum p^-i.

    The complement form of the local factor, in exact rationals; the
    library computes the interval form.
    """
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    forbidden_sum = Fraction(0)
    for iv in complement(pattern).intervals:
        if iv.hi is None:
            # sum_{i >= lo} p^-i = 1 / (p^(lo-1) (p - 1))
            forbidden_sum += Fraction(1, p ** (iv.lo - 1) * (p - 1))
        else:
            # sum_{i=lo..hi} p^-i = (p^(hi-lo+1) - 1) / (p^hi (p - 1))
            forbidden_sum += Fraction(
                p ** (iv.hi - iv.lo + 1) - 1, p**iv.hi * (p - 1)
            )
    f = 1 - Fraction(p - 1, p) * forbidden_sum
    return LocalFactor(p, float(f))


def table_weight(values, tail_slope: int = 0, tail_offset: int = 0) -> ExponentWeight:
    """weight(i) = values[i - 1] for i <= len(values), else tail_slope * i + tail_offset.

    One piece per listed value and one unbounded tail piece.
    """
    n = len(values)
    pieces = [(ExponentInterval(i, i), 0, v) for i, v in enumerate(values, start=1)]
    pieces.append((ExponentInterval(n + 1, None), tail_slope, tail_offset))
    return ExponentWeight(tuple(pieces))


def reference_local_poly(p: int, w: ExponentWeight, K: int) -> tuple[float, ...]:
    """The scalar local polynomial a_0..a_K, one prime at a time, per piece."""
    if p < 2 or K < 0:
        raise ValueError("need p >= 2 and K >= 0")
    x = 1.0 / p
    raw = np.zeros(K + 1)
    raw[0] = 1.0
    for iv, slope, offset in w.pieces:
        if slope == 0:
            if offset <= K:
                # sum_{i=lo..hi} x^i
                tail = 0.0 if iv.hi is None else x ** (iv.hi + 1)
                raw[offset] += (x**iv.lo - tail) / (1.0 - x)
        else:
            for i in range(iv.lo, K - offset + 1):
                if iv.hi is None or i <= iv.hi:
                    raw[i + offset] += x**i
    return tuple(float(c) for c in raw * (1.0 - x))


def reference_density_series(
    w: ExponentWeight,
    K: int = 8,
    truncation_prime: int = 100_000,
) -> tuple[float, ...]:
    """The truncated series by the per-prime convolution loop, as first written.

    Every row is nonnegative, so each coefficient is within
    pi(P) (K + 3) u relative of the exact truncated product.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if truncation_prime < 2:
        raise ValueError("truncation_prime must be >= 2")
    if min_forbidden(w.induced_pattern()) == 1:
        raise DivergentWeightError(
            "weight is positive at exponent 1; all finite coefficients are zero"
        )
    coeffs = np.zeros(K + 1)
    coeffs[0] = 1.0
    for p in primes_upto(truncation_prime).tolist():
        coeffs = np.convolve(coeffs, reference_local_poly(p, w, K))[: K + 1]
    return tuple(coeffs.tolist())


def gap_factor(p: np.ndarray) -> np.ndarray:
    """Local factor of exponents {1} or >= 3: 1 - p^-2 + p^-3."""
    return 1.0 - p**-2.0 + p**-3.0


def exp_odd_factor(p: np.ndarray) -> np.ndarray:
    """Local factor of exponents all odd: 1 - 1/(p (p + 1))."""
    return 1.0 - 1.0 / (p * (p + 1.0))


def mod_periodic_factor(ell: int):
    """Local factor of exponents = 1 mod ell: 1 - (p^(ell-1) - 1)/(p (p^ell - 1))."""
    return lambda p: 1.0 - (p ** (ell - 1) - 1.0) / (p * (p**ell - 1.0))


def assert_below_partial(value: float, partial: float, slack: float = 1e-7) -> None:
    """The density lies below its partial product, and not far below it."""
    assert value <= partial
    assert partial - value <= slack


def brute_count(x: int, allowed) -> int:
    """Count n <= x with allowed(p, alpha) for every prime power; n=1 counts."""
    total = 0
    for n in range(1, x + 1):
        if all(allowed(p, a) for p, a in brute_factorize(n)):
            total += 1
    return total


def in_raw_union(raw: list[tuple[int, int | None]], alpha: int) -> bool:
    return any(lo <= alpha and (hi is None or alpha <= hi) for lo, hi in raw)


raw_intervals = st.lists(
    st.tuples(st.integers(1, 12), st.one_of(st.none(), st.integers(0, 8))).map(
        lambda t: (t[0], None if t[1] is None else t[0] + t[1])
    ),
    max_size=5,
)


def random_pattern(
    rng: random.Random,
    max_lo: int = 12,
    max_width: int = 6,
    allow_unbounded: bool = True,
) -> ExponentPattern:
    ivs: list[tuple[int, int | None]] = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randint(1, max_lo)
        ivs.append((lo, lo + rng.randint(0, max_width)))
    if allow_unbounded and rng.random() < 0.5:
        ivs.append((rng.randint(1, max_lo), None))
    return normalize_intervals(ivs)


def random_small_pap(rng: random.Random) -> PrimeAwarePattern:
    """Patterns shaped for sieve comparison: intervals within [1, 6], an
    optional unbounded tail, up to two exceptional primes from {2, 3, 5},
    and a default that allows exponent 1."""
    from expdens.patterns import contains

    while True:
        ivs: list[tuple[int, int | None]] = []
        for _ in range(rng.randint(1, 3)):
            lo = rng.randint(1, 6)
            ivs.append((lo, rng.randint(lo, 6)))
        if rng.random() < 0.5:
            ivs.append((rng.randint(1, 7), None))
        default = normalize_intervals(ivs)
        if contains(default, 1):
            break
    exceptions = {}
    for q in (2, 3, 5):
        if len(exceptions) >= 2 or rng.random() >= 0.35:
            continue
        if rng.random() < 0.25:
            exceptions[q] = normalize_intervals([])
        else:
            lo = rng.randint(1, 4)
            hi = None if rng.random() < 0.3 else rng.randint(lo, 6)
            exceptions[q] = normalize_intervals([(lo, hi)])
    return PrimeAwarePattern(default=default, exceptions=exceptions)


def pap_allows(pap: PrimeAwarePattern, p: int, alpha: int) -> bool:
    from expdens.patterns import contains, pattern_for_prime

    return contains(pattern_for_prime(pap, p), alpha)


# ---------------------------------------------------------------------------
# 40-digit Euler products: an exact product over p < ORACLE_SPLIT times
# exp(-sum_t c_t (primezeta(t) - head_t)), with the c_t of -log F(p) in exact
# rationals.  With p >= 1000 and |c_t| < 2^t, the terms past ORACLE_DEGREE are
# below 1e-70.

ORACLE_DPS = 40
ORACLE_SPLIT = 1000
ORACLE_DEGREE = 40


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


@lru_cache(maxsize=None)
def _small_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in primes_upto(ORACLE_SPLIT - 1))


@lru_cache(maxsize=None)
def _prime_zeta_tail(t: int) -> mpmath.mpf:
    """sum over primes p >= ORACLE_SPLIT of p^-t."""
    with mpmath.workdps(ORACLE_DPS + 10):
        head = mpmath.fsum(mpmath.mpf(p) ** -t for p in _small_primes())
        return mpmath.primezeta(t) - head


def _neglog_series(u: list[Fraction]) -> list[Fraction]:
    """Coefficients of -log(1 - u(x)) up to ORACLE_DEGREE; u[0] = u[1] = 0."""
    n = ORACLE_DEGREE + 1
    u = (list(u) + [Fraction(0)] * n)[:n]
    out = [Fraction(0)] * n
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for j in range(1, n):
        power = [sum(power[i] * u[t - i] for i in range(t + 1)) for t in range(n)]
        if not any(power):
            break
        out = [o + c / j for o, c in zip(out, power)]
    return out


def _series_quotient(num: list[int], den: list[int]) -> list[Fraction]:
    """Power-series coefficients of num(x) / den(x), den[0] = 1."""
    out: list[Fraction] = []
    for t in range(ORACLE_DEGREE + 1):
        c = Fraction(num[t] if t < len(num) else 0)
        c -= sum(den[i] * out[t - i] for i in range(1, min(t, len(den) - 1) + 1))
        out.append(c)
    return out


def _tail_factor(neglog: list[Fraction]) -> mpmath.mpf:
    """prod over p >= ORACLE_SPLIT of the factor whose -log series is ``neglog``."""
    total = mpmath.fsum(
        _mpf(c) * _prime_zeta_tail(t) for t, c in enumerate(neglog) if c and t >= 2
    )
    return mpmath.exp(-total)


def _interval_factor(p: int, pattern: ExponentPattern) -> mpmath.mpf:
    """F(p) = 1 - 1/p + sum over allowed [lo, hi] of p^-lo - p^-(hi+1)."""
    x = mpmath.mpf(1) / p
    f = 1 - x
    for iv in pattern.intervals:
        f += x**iv.lo
        if iv.hi is not None:
            f -= x ** (iv.hi + 1)
    return f


def oracle_density(pap: PrimeAwarePattern) -> mpmath.mpf:
    """The density of ``pap`` to 40 digits; its default must forbid some m >= 2."""
    with mpmath.workdps(ORACLE_DPS):
        # 1 - F(p) = (1 - x) sum over forbidden i of x^i, from the allowed set
        allowed = [
            any(iv.lo <= i and (iv.hi is None or i <= iv.hi) for iv in pap.default.intervals)
            for i in range(ORACLE_DEGREE + 1)
        ]
        forbidden = [0] + [0 if a else 1 for a in allowed[1:]]
        u = [Fraction(forbidden[t] - (forbidden[t - 1] if t else 0)) for t in range(len(forbidden))]
        value = _tail_factor(_neglog_series(u))
        for p in _small_primes():
            value *= _interval_factor(p, pap.exceptions.get(p, pap.default))
        for q, pattern in pap.exceptions.items():
            if q >= ORACLE_SPLIT:
                value *= _interval_factor(q, pattern) / _interval_factor(q, pap.default)
        return +value


def oracle_mod_periodic(ell: int) -> mpmath.mpf:
    """prod_p (1 - (p^(ell-1) - 1) / (p (p^ell - 1))) to 40 digits, ell >= 2."""
    with mpmath.workdps(ORACLE_DPS):
        # 1 - F = (x^2 - x^(ell+1)) / (1 - x^ell) in x = 1/p
        num = [0] * (ell + 2)
        num[2] += 1
        num[ell + 1] -= 1
        den = [1] + [0] * (ell - 1) + [-1]
        value = _tail_factor(_neglog_series(_series_quotient(num, den)))
        for p in _small_primes():
            p = mpmath.mpf(p)
            value *= 1 - (p ** (ell - 1) - 1) / (p * (p**ell - 1))
        return +value


def oracle_prime_sum(k: int) -> mpmath.mpf:
    """sum over all primes of 1 / (p^k - 1) to 40 digits."""
    with mpmath.workdps(ORACLE_DPS):
        s = mpmath.fsum(1 / (mpmath.mpf(p) ** k - 1) for p in _small_primes())
        s += mpmath.fsum(_prime_zeta_tail(t) for t in range(k, ORACLE_DEGREE + 1, k))
        return +s


def oracle_closed_form(form: str, **kw) -> mpmath.mpf:
    """The catalog density ``form`` with the parameters of ``closed_form``."""
    with mpmath.workdps(ORACLE_DPS):
        k, ell = kw.get("k"), kw.get("ell")
        if form == "powerfree":
            return 1 / mpmath.zeta(k + 1)
        if form == "squarefree_or_high":
            return oracle_density(PrimeAwarePattern(normalize_intervals([(1, 1), (k, None)])))
        if form == "skip_one":
            return oracle_density(
                PrimeAwarePattern(normalize_intervals([(1, k - 1), (k + 1, None)]))
            )
        if form == "exp_odd":
            return oracle_mod_periodic(2)
        if form == "mod_periodic":
            return mpmath.mpf(1) if ell == 1 else oracle_mod_periodic(ell)
        if form == "ex1":
            ratio = mpmath.fprod(
                (1 - mpmath.mpf(1) / r) / (1 - mpmath.mpf(r) ** -k)
                for r in _small_primes()
                if r <= kw["q"]
            )
            return ratio / mpmath.zeta(k)
        if form == "ex2":
            ratio = mpmath.fprod(
                (mpmath.mpf(r) ** k - mpmath.mpf(r) ** (k - 1)) / (mpmath.mpf(r) ** k - 1)
                for r in kw["primes"]
            )
            return ratio / mpmath.zeta(k)
        if form == "ex3_single":
            pk = mpmath.mpf(kw["p"]) ** k
            return pk / (pk - 1) / mpmath.zeta(k)
        if form == "ex3":
            return (1 + oracle_prime_sum(k)) / mpmath.zeta(k)
        raise ValueError(f"no oracle for {form!r}")


# ---------------------------------------------------------------------------
# 40-digit density series: the exact product of the local polynomials over
# p < ORACLE_SPLIT times exp(-tail(z)), where tail(z) = sum over p >= the
# split of -log F(p; z) = sum_t c_t(z) (primezeta(t) - head_t) and the c_t(z)
# are exact.  Beyond the split, the c_t of all z-degrees together are below
# 2^t / t, so the terms past ORACLE_DEGREE are below 1e-75.


def _local_series(p: int, w: ExponentWeight, K: int) -> list[mpmath.mpf]:
    """F(p; z) = (1 - 1/p) (1 + sum_i z^w(i) p^-i) mod z^(K+1), in mpmath."""
    x = mpmath.mpf(1) / p
    a = [mpmath.mpf(0)] * (K + 1)
    a[0] += 1
    for iv, slope, offset in w.pieces:
        if slope == 0:
            if offset <= K:
                tail = 0 if iv.hi is None else x ** (iv.hi + 1)
                a[offset] += (x**iv.lo - tail) / (1 - x)
        else:
            for i in range(iv.lo, K - offset + 1):
                if iv.hi is None or i <= iv.hi:
                    a[i + offset] += x**i
    return [(1 - x) * c for c in a]


def _times(a: list, b: list) -> list:
    """Product of two series, truncated to the length of a."""
    return [mpmath.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in range(len(a))]


@lru_cache(maxsize=None)
def _neglog_series_z(w: ExponentWeight, K: int) -> list[list[Fraction]]:
    """c[t][k] with -log F(p; z) = sum_{t, k} c[t][k] p^-t z^k, t <= ORACLE_DEGREE.

    1 - F(p; z) = sum_t (z^w(t-1) - z^w(t)) p^-t with w(0) = 0; its powers
    are exact integers, divided by j once each.
    """
    n = ORACLE_DEGREE + 1
    delta = np.zeros((n, K + 1), dtype=object)
    delta[:] = 0
    for t in range(1, n):
        for k, sign in ((w.weight(t - 1) if t > 1 else 0, 1), (w.weight(t), -1)):
            if k <= K:
                delta[t, k] += sign
    out = [[Fraction(0)] * (K + 1) for _ in range(n)]
    power = delta.copy()
    j = 1
    while any(power.flat):
        for t in range(n):
            for k in range(K + 1):
                if power[t, k]:
                    out[t][k] += Fraction(int(power[t, k]), j)
        nxt = np.zeros_like(power)
        nxt[:] = 0
        for t, k in zip(*np.nonzero(delta)):
            nxt[t:, k:] += delta[t, k] * power[: n - t, : K + 1 - k]
        power = nxt
        j += 1
    return out


def _exp_series_mp(s: list) -> list:
    """Coefficients of exp(s(z)) by k e_k = sum_j j s_j e_{k-j}."""
    e = [mpmath.exp(s[0])]
    for k in range(1, len(s)):
        e.append(mpmath.fsum(j * s[j] * e[k - j] for j in range(1, k + 1)) / k)
    return e


@lru_cache(maxsize=None)
def _prime_zeta_beyond(P: int, t_max: int) -> tuple:
    """sum over primes p > P of p^-t for t = 0..t_max, for P >= ORACLE_SPLIT - 1."""
    # fixed point: each term is floored to a multiple of 10^-80
    scale = 10**80
    heads = [0] * (t_max + 1)
    for p in primes_upto(P).tolist():
        if p >= ORACLE_SPLIT:
            power = 1
            for t in range(1, t_max + 1):
                power *= p
                heads[t] += scale // power
    with mpmath.workdps(ORACLE_DPS + 20):
        return tuple(
            _prime_zeta_tail(t) - mpmath.mpf(heads[t]) / scale if t >= 2 else None
            for t in range(t_max + 1)
        )


@lru_cache(maxsize=None)
def _oracle_series(w: ExponentWeight, K: int, P: int) -> tuple:
    split = max(P, ORACLE_SPLIT - 1)
    with mpmath.workdps(ORACLE_DPS + 10):
        c = _neglog_series_z(w, K)
        # a t with 2^t split^(1-t) < 1e-60 adds less than that
        ts = [t for t in range(2, len(c)) if (t - 1) * math.log(split) - t * math.log(2) < 138]
        beyond = _prime_zeta_beyond(split, ts[-1])
        tail = [
            -mpmath.fsum(_mpf(c[t][k]) * beyond[t] for t in ts if c[t][k])
            for k in range(K + 1)
        ]
        d = _exp_series_mp(tail)
        for p in _small_primes():
            if p > P:
                d = _times(d, _local_series(p, w, K))
        return tuple(d)


def oracle_series(w: ExponentWeight, K: int, beyond: int = 1) -> list[mpmath.mpf]:
    """prod_{p > beyond} F(p; z) mod z^(K+1) to 40 digits; w(1) must be 0.

    With ``beyond`` = 1 these are the densities d_0..d_K of the weight.
    """
    return list(_oracle_series(w, K, beyond))
