"""Density series: coefficients d_0..d_K of sum_k d_k z^k.

For a prime-independent exponent weight w, g(n) = sum over (p, alpha) in the
factorization of n of w(alpha) is additive over prime powers, and d_k is the
natural density of {n : g(n) = k}.  The generating identity is a product over
primes of per-prime polynomials

    (1 - 1/p) (1 + sum_{i >= 1} z^w(i) p^-i)

collected by powers of z; each full factor evaluates to 1 at z = 1, so the
coefficients of the truncated product sum to at most 1 and the shortfall is
exactly the mass pushed beyond degree K.

``density_series`` walks the primes in blocks of ``BLOCK_SIZE``.
``local_polys`` builds the coefficient rows of a whole block in one numpy
pass, and the running product takes one ``np.convolve`` per prime, in prime
order, so the float operations are those of a prime-by-prime loop.  The
powers p^-i are Python float powers, because numpy's vector power rounds
some of them differently.  Work is estimated as pi(P) (K + 1 + 8) before
any sieving and capped at ``SERIES_WORK_CAP``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .patterns import ExponentPattern, contains, min_forbidden, normalize_intervals
from .primes import RS_UPPER, ResourceBudgetError, sieve_primes

# Primes whose local polynomials are built in one numpy pass; at K = 16 a
# block's rows take about half a megabyte.
BLOCK_SIZE = 4096
# Largest admitted work estimate pi(P) (K + 1 + PER_PRIME_COST): P = 1e7 at
# K = 16 is about 1.95e7 and passes; P = 1e8 at K = 0 is about 6.1e7 and
# does not.
SERIES_WORK_CAP = 2 * 10**7
# Each prime costs one np.convolve call whatever K is, about as much as eight
# coefficient products.
PER_PRIME_COST = 8


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
class LocalPoly:
    """One prime's factor collected by powers of z, truncated at degree K."""

    prime: int
    coeffs: tuple[float, ...]
    dropped: float


@dataclass(frozen=True)
class DensitySeries:
    coeffs: tuple[float, ...]
    truncation_prime: int
    mass_deficit: float
    stability: tuple[float, ...]

    def __post_init__(self):
        if any(c < -1e-12 for c in self.coeffs):
            raise ValueError("series coefficients must be nonnegative up to roundoff")
        if sum(self.coeffs) > 1.0 + 1e-9:
            raise ValueError("series coefficients must sum to at most 1")


def local_polys(
    primes: np.ndarray, w: ExponentWeight, K: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient rows c_0..c_K of each prime's factor, plus the dropped mass.

    Row j holds c_k = (1 - 1/p) ([k = 0] + sum over i with w(i) = k of p^-i)
    for p = primes[j]; tail contributions enter in closed geometric form, and
    exponents whose weight exceeds K are accumulated into ``dropped[j]``
    instead.  Returns the ``(len(primes), K + 1)`` rows and ``dropped``.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if K < 0 or (primes.size and primes.min() < 2):
        raise ValueError("need p >= 2 and K >= 0")
    x = 1.0 / primes
    xs = x.tolist()

    def power(i: int) -> np.ndarray:
        # Python's scalar pow, not numpy's vector pow, which rounds some
        # entries differently in the last bit.
        return np.array([v**i for v in xs])

    raw = np.zeros((len(xs), K + 1))
    dropped = np.zeros(len(xs))
    for i, wi in w.exceptions.items():
        if wi <= K:
            raw[:, wi] += power(i)
        else:
            dropped += power(i)
    i0 = w.tail_start
    if w.tail_slope == 0:
        geom = power(i0) / (1.0 - x)
        if w.tail_offset <= K:
            raw[:, w.tail_offset] += geom
        else:
            dropped += geom
    else:
        for deg in range(max(0, i0 + w.tail_offset), K + 1):
            raw[:, deg] += power(deg - w.tail_offset)
        cut = max(i0, K + 1 - w.tail_offset)
        dropped += power(cut) / (1.0 - x)
    scale = 1.0 - x
    coeffs = raw * scale[:, None]
    coeffs[:, 0] += scale
    return coeffs, dropped * scale


def local_poly(p: int, w: ExponentWeight, K: int) -> LocalPoly:
    """One prime's factor: row 0 of ``local_polys`` for the single prime p."""
    coeffs, dropped = local_polys(np.array([p]), w, K)
    return LocalPoly(p, tuple(coeffs[0].tolist()), float(dropped[0]))


def _multiply(coeffs: np.ndarray, primes: np.ndarray, w: ExponentWeight, K: int) -> np.ndarray:
    """coeffs times the local polynomials of ``primes``, in order, degree-capped."""
    for start in range(0, len(primes), BLOCK_SIZE):
        rows, _ = local_polys(primes[start : start + BLOCK_SIZE], w, K)
        for row in rows:
            coeffs = np.convolve(coeffs, row)[: K + 1]
    return coeffs


def density_series(
    w: ExponentWeight,
    K: int = 8,
    truncation_prime: int = 100_000,
) -> DensitySeries:
    """Product of local polynomials over p <= truncation_prime, degree-capped.

    Raises DivergentWeightError when w(1) > 0 (the induced pattern forbids
    exponent 1), since then d_0 and every finite-k density vanish.  The
    ``stability`` diagnostics are the per-coefficient changes relative to a
    rerun truncated at half the prime bound.  Raises ResourceBudgetError
    when the work estimate pi(P) (K + 1 + PER_PRIME_COST), with pi(P)
    bounded by RS_UPPER P / ln P, exceeds SERIES_WORK_CAP.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if truncation_prime < 2:
        raise ValueError("truncation_prime must be >= 2")
    if min_forbidden(w.induced_pattern()) == 1:
        raise DivergentWeightError(
            "weight is positive at exponent 1; all finite coefficients are zero"
        )
    per_prime = K + 1 + PER_PRIME_COST
    work = RS_UPPER * truncation_prime / math.log(truncation_prime) * per_prime
    if work > SERIES_WORK_CAP:
        raise ResourceBudgetError(
            f"series work estimate {work:.3g} (primes up to {truncation_prime} "
            f"times {per_prime} units) exceeds cap {SERIES_WORK_CAP:.3g}"
        )
    primes = sieve_primes(truncation_prime).primes
    coeffs = np.zeros(K + 1)
    coeffs[0] = 1.0
    half = int(np.searchsorted(primes, truncation_prime // 2, side="right"))
    half_coeffs = _multiply(coeffs, primes[:half], w, K)
    coeffs = _multiply(half_coeffs, primes[half:], w, K)
    stability = coeffs - half_coeffs
    mass_deficit = 1.0 - float(coeffs.sum())
    return DensitySeries(
        tuple(float(c) for c in coeffs),
        truncation_prime,
        mass_deficit,
        tuple(float(d) for d in stability),
    )
