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

``density_series`` runs the Euler-product engine of ``euler``: per chunk of
primes, ``local_polys`` builds the coefficient rows of F(p; z) with numpy
powers, ``_log_rows`` takes the log of each row as a series in z, the engine
sums the logs over p <= P, encloses the factors p > P through prime zeta
values per z-degree, and takes one exp of the series.  Every d_k comes with
``lower`` and ``upper`` that hold the true density, the tail beyond P and
all float roundoff included.  ``stability`` is d_k(P) - d_k(P // 2), the
change from a second engine call at half the truncation prime.  Work is
estimated as pi(P) (K + 9)^2 before any sieving and capped at
``SERIES_WORK_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import euler
from .euler import _U
from .patterns import (
    ExponentPattern,
    complement,
    contains,
    min_forbidden,
    normalize_intervals,
)

# sieve_primes stays a module attribute: perfbench/trace_launch.py wraps it
# by name.
from .primes import RS_UPPER, ResourceBudgetError, sieve_primes  # noqa: F401

# Truncation prime when none is given, for the library, the CLI and scripts.
DEFAULT_TRUNCATION = 100_000
# Largest admitted work estimate pi(P) (K + 9)^2: the log of a row costs
# about K^2 / 2 products per prime for the value and as many for its
# majorant, and the 9 stands for the per-prime powers, log1p and head sums.
# P = 1e7 at K = 16 is about 4.87e8 and passes; P = 1e8 at K = 0 is about
# 5.52e8 and does not.
SERIES_WORK_CAP = 5 * 10**8


class DivergentWeightError(ValueError):
    """Weight whose zero set forbids exponent 1; every coefficient vanishes."""


@dataclass(frozen=True)
class ExponentWeight:
    """Prime-independent integer weight on exponents with a structured tail.

    weight(i) = exceptions[i] for 1 <= i < tail_start and
    weight(i) = tail_slope * i + tail_offset for i >= tail_start.  The slope
    is 0 (binary-style weights) or 1 (excess-style weights); all weights must
    be >= 0 and the exceptions must cover [1, tail_start) exactly.
    """

    exceptions: dict[int, int] = field(default_factory=dict)
    tail_start: int = 1
    tail_slope: int = 0
    tail_offset: int = 0

    def __post_init__(self):
        if self.tail_start < 1:
            raise ValueError("tail_start must be >= 1")
        if self.tail_slope not in (0, 1):
            raise ValueError("tail_slope must be 0 or 1")
        if self.tail_slope * self.tail_start + self.tail_offset < 0:
            raise ValueError("tail weights must be >= 0")
        covered = set(self.exceptions)
        expected = set(range(1, self.tail_start))
        if covered != expected:
            raise ValueError(
                f"exceptions must cover exponents {sorted(expected)}, got {sorted(covered)}"
            )
        if any(v < 0 for v in self.exceptions.values()):
            raise ValueError("weights must be >= 0")
        object.__setattr__(self, "exceptions", dict(sorted(self.exceptions.items())))

    def weight(self, i: int) -> int:
        if i < 1:
            raise ValueError("exponents are >= 1")
        if i < self.tail_start:
            return self.exceptions[i]
        return self.tail_slope * i + self.tail_offset

    def induced_pattern(self) -> ExponentPattern:
        """The allowed-exponent pattern {i : weight(i) = 0}."""
        ivs: list[tuple[int, int | None]] = [
            (i, i) for i, v in self.exceptions.items() if v == 0
        ]
        if self.tail_slope == 0 and self.tail_offset == 0:
            ivs.append((self.tail_start, None))
        elif self.tail_slope == 1 and -self.tail_offset >= self.tail_start:
            ivs.append((-self.tail_offset, -self.tail_offset))
        return normalize_intervals(ivs)

    @classmethod
    def zero(cls) -> "ExponentWeight":
        return cls()

    @classmethod
    def excess(cls) -> "ExponentWeight":
        """weight(i) = i - 1; g(n) counts exponent excess over squarefree."""
        return cls(tail_start=1, tail_slope=1, tail_offset=-1)

    @classmethod
    def outside_pattern(cls, pattern: ExponentPattern) -> "ExponentWeight":
        """Binary weight: 1 on exponents the pattern forbids, 0 on allowed ones."""
        if pattern.intervals and pattern.intervals[-1].hi is None:
            tail_start = pattern.intervals[-1].lo
            slope_offset = 0
        elif pattern.intervals:
            tail_start = pattern.intervals[-1].hi + 1
            slope_offset = 1
        else:
            tail_start = 1
            slope_offset = 1
        exceptions = {
            i: 0 if contains(pattern, i) else 1 for i in range(1, tail_start)
        }
        return cls(exceptions=exceptions, tail_start=tail_start, tail_offset=slope_offset)

    @classmethod
    def threshold(cls, k: int) -> "ExponentWeight":
        """Binary weight: 1 exactly when the exponent is >= k."""
        if k < 1:
            raise ValueError("threshold needs k >= 1")
        if k == 1:
            return cls(tail_offset=1)
        return cls.outside_pattern(normalize_intervals([(1, k - 1)]))


@dataclass(frozen=True)
class DensitySeries:
    """d_0..d_K, each with a bracket lower[k] <= d_k <= upper[k].

    ``coeffs[k]`` is the point value of d_k, clamped into its bracket.
    ``mass_deficit`` = 1 - sum(coeffs), the density of {n : g(n) > K};
    ``stability[k]`` = d_k(P) - d_k(P // 2), with P // 2 raised to 2 when
    P < 4.
    """

    coeffs: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    truncation_prime: int
    mass_deficit: float
    stability: tuple[float, ...]

    def __post_init__(self):
        if not len(self.lower) == len(self.upper) == len(self.coeffs):
            raise ValueError("every coefficient needs a bracket")
        if any(c < lo or c > hi for c, lo, hi in zip(self.coeffs, self.lower, self.upper)):
            raise ValueError("series coefficients must lie in their brackets")
        if any(c < -1e-12 for c in self.coeffs):
            raise ValueError("series coefficients must be nonnegative up to roundoff")
        if sum(self.coeffs) > 1.0 + 1e-9:
            raise ValueError("series coefficients must sum to at most 1")


def local_polys(primes: np.ndarray, w: ExponentWeight, K: int) -> np.ndarray:
    """Coefficient rows a_0..a_K of F(p; z), one column per prime.

    Row k holds a_k = (1 - 1/p) ([k = 0] + sum over i with w(i) = k of p^-i);
    a tail of constant weight enters in closed geometric form, and exponents
    whose weight exceeds K are left out.  Returns a (K + 1, len(primes))
    array.  Each power is within 4 ulp, a geometric tail term within 8, and
    1 - 1/p within 3, so with one rounding per added term, row k is within
    (n_k + 13) u relative, n_k the number of terms of weight k.
    """
    pf = np.asarray(primes, dtype=np.float64)
    if K < 0 or (pf.size and pf.min() < 2):
        raise ValueError("need p >= 2 and K >= 0")
    scale = 1.0 - 1.0 / pf
    raw = np.zeros((K + 1, pf.size))
    for i, wi in w.exceptions.items():
        if wi <= K:
            raw[wi] += pf ** -float(i)
    i0 = w.tail_start
    if w.tail_slope == 0:
        if w.tail_offset <= K:
            raw[w.tail_offset] += pf ** -float(i0) / scale
    else:
        for deg in range(max(0, i0 + w.tail_offset), K + 1):
            raw[deg] += pf ** -float(deg - w.tail_offset)
    raw *= scale
    raw[0] += scale
    return raw


def _log_rows(log0: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log F(p; z) = log a_0 + log(1 + r(z)) per prime, and its majorant.

    ``log0`` is log a_0, one entry per prime, and r[k - 1] holds
    r_k = a_k / a_0 >= 0 for k = 1..K.  The coefficients b_k of log(1 + r)
    follow c_k = k b_k = k r_k - sum_{0<j<k} c_j r_{k-j}, and those of the
    majorant B = -log(1 - r) the same recurrence with a plus sign, so that
    |b_k| <= B_k; both are divided by k at the end.  Returns the (K + 1, n)
    logs and the (K, n) majorant.
    """
    K, n = r.shape
    # out[0] holds the logs and out[1, 1:] the majorant, as c_k until the end
    out = np.empty((2, K + 1, n))
    out[0, 0] = log0
    if K:
        out[:, 1] = r[0]
    for k in range(2, K + 1):
        # c_1, ..., c_{k-1} against r_{k-1}, ..., r_1
        acc = np.einsum("ajn,jn->an", out[:, 1:k], r[k - 2 :: -1])
        np.multiply(r[k - 1], k, out=out[0, k])
        np.add(out[0, k], acc[1], out=out[1, k])
        out[0, k] -= acc[0]
    out[:, 1:] /= np.arange(1.0, K + 1)[:, None]
    return out[0], out[1, 1:]


def _log_row_errors(K: int, rho: float) -> list[float]:
    """Relative error bounds of ``_log_rows`` for k = 1..K, against its majorant.

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


def _deficiency(w: ExponentWeight, K: int) -> np.ndarray:
    """1 - F(p; z) as integers per p^-t z^k, for t <= 64 and k <= K."""
    coef = np.zeros((euler._SERIES_DEGREE + 1, K + 1), dtype=np.int64)
    prev = 0
    for t in range(1, euler._SERIES_DEGREE + 1):
        cur = w.weight(t)
        if prev <= K:
            coef[t, prev] += 1
        if cur <= K:
            coef[t, cur] -= 1
        prev = cur
    return coef


def _enclose(w: ExponentWeight, K: int, m: int, P: int) -> euler._Bracket:
    """One engine call: d_0..d_K bracketed, factors p <= P multiplied out."""
    forbidden = complement(w.induced_pattern()).intervals
    delta, log_rel_err = euler._delta_from_intervals(forbidden)
    # r_k = a_k / a_0 is within (n_k + n_0 + 27) u, n_k + n_0 <= len(exceptions) + 2
    rho = (len(w.exceptions) + 32) * _U

    def rows_of(pf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = local_polys(pf, w, K)
        rows[1:] /= rows[0]
        return _log_rows(np.log1p(-delta(pf)), rows[1:])

    rel = [log_rel_err, *_log_row_errors(K, rho)]
    return euler._bracketed_product(rows_of, rel, _deficiency(w, K), m, P)


def density_series(
    w: ExponentWeight,
    K: int = 8,
    truncation_prime: int = DEFAULT_TRUNCATION,
) -> DensitySeries:
    """d_0..d_K of the weight w, each with a proven bracket.

    The factors p <= truncation_prime are multiplied out and the rest
    enclosed through prime zeta values.  Raises DivergentWeightError when
    w(1) > 0 (the induced pattern forbids exponent 1), since then d_0 and
    every finite-k density vanish.  Raises ResourceBudgetError when the
    work estimate pi(P) (K + 9)^2, with pi(P) bounded by RS_UPPER P / ln P,
    exceeds SERIES_WORK_CAP.
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
    per_prime = (K + 9) ** 2
    work = RS_UPPER * truncation_prime / math.log(truncation_prime) * per_prime
    if work > SERIES_WORK_CAP:
        raise ResourceBudgetError(
            f"series work estimate {work:.3g} (primes up to {truncation_prime} "
            f"times {per_prime} units) exceeds cap {SERIES_WORK_CAP:.3g}"
        )
    if m is None:
        # w is 0 on every exponent, so every factor is 1
        one = (1.0,) + (0.0,) * K
        return DensitySeries(one, one, one, truncation_prime, 0.0, (0.0,) * (K + 1))
    full = _enclose(w, K, m, truncation_prime)
    half = _enclose(w, K, m, max(truncation_prime // 2, 2))
    return DensitySeries(
        full.value,
        full.lower,
        full.upper,
        truncation_prime,
        1.0 - math.fsum(full.value),
        tuple(a - b for a, b in zip(full.value, half.value)),
    )
