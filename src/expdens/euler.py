"""Euler products over primes with rigorous truncation brackets.

The density of {n : every prime exponent of n is allowed} is an infinite
product of per-prime local factors.  Two equivalent closed forms exist for
one local factor:

  interval form:    F(p) = (1 - 1/p) + sum_j (p^-a_j - p^-(b_j+1))
                    over the allowed intervals [a_j, b_j] (the second term
                    drops when b_j is unbounded);
  complement form:  F(p) = 1 - (1 - 1/p) * sum over forbidden exponents i
                    of p^-i, with the forbidden sum in closed geometric form.

Products are truncated at a prime P.  The published bracket is
[V * exp(-tail_logbound), V] with V the truncated product and tail_logbound
a proven upper bound on the omitted -log factors, so the true density always
lies inside.  The point value additionally applies a sharp (non-bracket)
tail correction computed from prime zeta values, which is what makes 1e-9
accuracy affordable at moderate truncation primes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .patterns import (
    ExponentInterval,
    ExponentPattern,
    PrimeAwarePattern,
    complement,
    min_forbidden,
    normalize_intervals,
)
from .primes import RS_UPPER, is_prime, prime_segments, sieve_primes

DEFAULT_PRIME_BUDGET = 10**8
DEFAULT_TARGET_ERROR = 1e-8

_SEARCH_START = 1000
# Degree at which power series in 1/p are cut; beyond it, terms are < p^-65
# and invisible at double precision for p >= 2.
_SERIES_DEGREE = 64
_FSUM_CHUNK = 1 << 16
# prime_sum adds 1/(p^k - 1) directly up to this prime and by prime zeta beyond.
_PRIME_SUM_CUTOFF = 100_000


class UnreachableTargetError(RuntimeError):
    """The requested bracket width cannot be met within the prime budget.

    ``best`` carries the tightest estimate achieved at the budget cap.
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

    upper is the truncated product itself and
    lower = upper * exp(-tail_logbound); the true density is inside.  value
    is a sharper point estimate, clamped into the bracket.  For divergent
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
    """zeta(s) for integer s >= 2 by direct summation plus an integral tail.

    The tail past N lies in [N^(1-s)/(s-1) - N^-s, N^(1-s)/(s-1)]; the
    midpoint is used, so the absolute error is below N^-s / 2 plus summation
    roundoff, comfortably under 1e-12.
    """
    if s < 2:
        raise ValueError("zeta_int requires s >= 2")
    n_terms = max(64, math.ceil((5e12) ** (1.0 / s)))
    n = np.arange(1, n_terms + 1, dtype=np.float64)
    # In place: at s = 2 the array holds 2.2e6 floats (18 MB), the largest
    # allocation of a density request.
    partial = float(np.sum(np.power(n, -float(s), out=n)))
    tail_upper = n_terms ** (1 - s) / (s - 1)
    correction = float(n_terms) ** (-s)
    value = partial + tail_upper - 0.5 * correction
    return BoundedValue(value, 0.5 * correction + 5e-15)


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
def _prime_zeta(s: int) -> float:
    """sum over primes of p^-s, via the Moebius inversion of log zeta."""
    if s < 2:
        raise ValueError("prime zeta evaluated only for s >= 2")
    total = 0.0
    r = 1
    while r * s <= _SERIES_DEGREE:
        mu = _mobius(r)
        if mu != 0:
            total += mu / r * math.log(zeta_int(r * s).value)
        r += 1
    return total


def prime_sum(k: int) -> BoundedValue:
    """sum over all primes of 1 / (p^k - 1), k >= 2.

    Primes up to ``_PRIME_SUM_CUTOFF`` are summed directly; the remainder is
    recovered exactly as a sum of prime-zeta tails via
    1/(p^k - 1) = sum_j p^(-jk), leaving only zeta-evaluation error of order
    1e-11.
    """
    if k < 2:
        raise ValueError("prime_sum requires k >= 2")
    p = sieve_primes(_PRIME_SUM_CUTOFF).primes.astype(np.float64)
    with np.errstate(over="ignore"):
        direct = float(np.sum(1.0 / (p**k - 1.0)))
    tail = 0.0
    j = 1
    while j * k <= _SERIES_DEGREE:
        head = float(np.sum(p ** (-float(j * k))))
        tail += max(_prime_zeta(j * k) - head, 0.0)
        j += 1
    return BoundedValue(direct + tail, 2e-11)


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


def local_factor_general(p: int, pattern: ExponentPattern) -> LocalFactor:
    """Local factor via the forbidden exponents: 1 - (1 - 1/p) * sum p^-i."""
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


# ---------------------------------------------------------------------------
# Deficiency series: 1 - F(p) as a signed polynomial in 1/p


def _deficiency_coeffs(forbidden: tuple) -> np.ndarray:
    """Coefficients u with 1 - F(p) = sum_t u[t] p^-t, cut at _SERIES_DEGREE."""
    coef = np.zeros(_SERIES_DEGREE + 1)
    for iv in forbidden:
        if iv.lo <= _SERIES_DEGREE:
            coef[iv.lo] += 1.0
        if iv.hi is not None and iv.hi + 1 <= _SERIES_DEGREE:
            coef[iv.hi + 1] -= 1.0
    return coef


def _neglog_coeffs(delta_coef: np.ndarray) -> np.ndarray:
    """Power-series coefficients of -log(1 - delta) in 1/p, truncated."""
    size = _SERIES_DEGREE + 1
    out = delta_coef.copy()
    power = delta_coef.copy()
    j = 2
    while True:
        power = np.convolve(power, delta_coef)[:size]
        if not power.any():
            break
        out += power / j
        j += 1
    return out


def _delta_from_intervals(forbidden: tuple):
    def delta(pf: np.ndarray) -> np.ndarray:
        inv = 1.0 / pf
        d = np.zeros_like(pf)
        for iv in forbidden:
            d += inv**iv.lo
            if iv.hi is not None:
                d -= inv ** (iv.hi + 1)
        return d

    return delta


# ---------------------------------------------------------------------------
# Bracketed product engine


def _tail_logbound_formula(P: int, m: int, pi_exact: int | None = None) -> float:
    """Upper bound on sum_{p > P} -log F(p) when 1 - F(p) <= p^-m, m >= 2.

    Minimum of two proven bounds: the integral comparison with all integers,
    P^(1-m)/(m-1), and a prime-counting refinement using
    pi(x) < 1.25506 x/ln x (x > 1) with pi(P) > P/ln P (P >= 17) when the
    exact count is not supplied.  Both are scaled by 1/(1 - 2^-m), which
    dominates the -log expansion.
    """
    scale = 1.0 / (1.0 - 2.0 ** (-m))
    coarse = float(P) ** (1 - m) / (m - 1)
    log_p = math.log(P)
    pi_val = float(pi_exact) if pi_exact is not None else P / log_p
    refined = (m * RS_UPPER / (m - 1)) * float(P) ** (1 - m) / log_p
    refined -= pi_val * float(P) ** (-m)
    return scale * min(coarse, max(refined, 0.0))


def _bracketed_product(
    delta_of,
    deficiency: np.ndarray,
    m: int,
    target_error: float,
    *,
    exceptional: dict[int, float] | None = None,
    truncation_prime: int | None = None,
) -> DensityEstimate:
    """Evaluate prod_p F(p) with F = 1 - delta and a rigorous bracket.

    ``delta_of`` maps a float64 array of primes to 1 - F(p); it must satisfy
    0 <= delta(p) <= p^-m beyond every exceptional prime.  ``deficiency``
    gives delta as a signed series in 1/p for the sharp tail correction.
    Exceptional primes contribute fixed factors and are excluded from the
    generic array path.  The truncation prime doubles up to
    DEFAULT_PRIME_BUDGET.
    """
    prime_budget = DEFAULT_PRIME_BUDGET
    exceptional = exceptional or {}
    if any(v <= 0.0 for v in exceptional.values()):
        # A zero factor would make the whole product zero exactly.
        raise ValueError("exceptional factors must be positive")
    max_exc = max(exceptional, default=0)
    neglog = _neglog_coeffs(deficiency)
    terms = [t for t in np.flatnonzero(neglog) if t >= 2]

    def evaluate(P: int) -> DensityEstimate:
        partials: list[float] = []
        heads = {t: 0.0 for t in terms}
        n_generic = 0
        exc_arr = np.array(sorted(exceptional), dtype=np.int64)
        needed = [t for t in terms if float(P) ** (1 - t) / (t - 1) > 1e-20]
        for seg in prime_segments(P):
            seg = seg[seg <= P]
            if seg.size == 0:
                continue
            if exc_arr.size and seg[0] <= max_exc:
                seg = seg[~np.isin(seg, exc_arr)]
            if seg.size == 0:
                continue
            pf = seg.astype(np.float64)
            logs = np.log1p(-delta_of(pf))
            for i in range(0, logs.size, _FSUM_CHUNK):
                partials.append(float(np.sum(logs[i : i + _FSUM_CHUNK])))
            for t in needed:
                heads[t] += float(np.sum(pf ** (-float(t))))
            n_generic += seg.size
        # prime_zeta runs over all primes, so the exceptional ones must be
        # counted in the heads even though they are excluded from the product
        for q in exceptional:
            if q <= P:
                for t in needed:
                    heads[t] += float(q) ** (-float(t))
        log_sum = math.fsum(partials)
        log_sum += math.fsum(math.log(v) for v in exceptional.values())
        truncated = math.exp(log_sum)
        pi_exact = n_generic + sum(1 for q in exceptional if q <= P)
        tail_bound = _tail_logbound_formula(P, m, pi_exact)
        # Roundoff allowance for the chunked compensated accumulation.
        tail_logbound = tail_bound + 2.0**-46 + abs(log_sum) * 2.0**-48
        lower = truncated * math.exp(-tail_logbound)
        tail_est = 0.0
        for t in needed:
            tail_est += float(neglog[t]) * max(_prime_zeta(int(t)) - heads[t], 0.0)
        tail_est = min(max(tail_est, 0.0), tail_bound)
        value = min(max(truncated * math.exp(-tail_est), lower), truncated)
        return DensityEstimate(value, lower, truncated, P, tail_logbound)

    start = max(_SEARCH_START, max_exc + 1)
    if truncation_prime is not None:
        if truncation_prime < max(start, 2):
            raise ValueError(
                f"truncation prime {truncation_prime} below required minimum {start}"
            )
        return evaluate(truncation_prime)

    if start > prime_budget:
        raise UnreachableTargetError(
            f"exceptional primes need truncation beyond budget {prime_budget}",
            evaluate(prime_budget),
        )
    P = start
    while P < prime_budget and _tail_logbound_formula(P, m) > target_error:
        P = min(2 * P, prime_budget)
    while True:
        est = evaluate(P)
        if est.width <= target_error:
            return est
        if P >= prime_budget:
            raise UnreachableTargetError(
                f"bracket width {est.width:.3e} > target {target_error:.3e} "
                f"at prime budget {prime_budget}",
                est,
            )
        P = min(2 * P, prime_budget)


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

    The truncation prime is grown (doubling from 1000) until the rigorous
    bracket is no wider than ``target_error``; pass ``truncation_prime`` to
    pin it instead, in which case no width check is applied.  If the default
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

    forbidden = complement(pap.default).intervals
    return _bracketed_product(
        _delta_from_intervals(forbidden),
        _deficiency_coeffs(forbidden),
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

    # Forbidden exponents are [ell (j-1) + 2, ell j] for j >= 1; those
    # starting beyond _SERIES_DEGREE leave the series untouched.
    forbidden = tuple(
        ExponentInterval(ell * (j - 1) + 2, ell * j)
        for j in range(1, _SERIES_DEGREE // ell + 2)
    )
    return _bracketed_product(delta, _deficiency_coeffs(forbidden), 2, target_error)


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
            truncation_prime=_PRIME_SUM_CUTOFF,
        )

    raise ValueError(f"unknown closed form {form!r}")
