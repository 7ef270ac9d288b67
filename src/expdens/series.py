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
by one per exponent, and the work per prime follows their count.

``density_series`` makes one call of the Euler-product engine of ``euler``:
per chunk of primes, ``local_polys`` builds the coefficient rows of F(p; z)
with numpy powers, ``_log_rows`` takes the log of each row as a series in z,
and the chunk's sums go to the engine, which adds them over p <= P,
encloses the factors p > P through prime zeta values per z-degree, and
takes one exp of the series.  numpy is imported by these kernels on first
use, so importing this module does not load it.  Every d_k comes with
``lower`` and ``upper`` that hold the true density, the tail beyond P and
all float roundoff included.  Work is estimated from P, K and
the piece count before any sieving and capped at ``SERIES_WORK_CAP``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import euler
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

if TYPE_CHECKING:
    import numpy as np

# Truncation prime when none is given, for the library, the CLI and scripts.
DEFAULT_TRUNCATION = 100_000
# Largest admitted work estimate pi(P) ((K + 9)^2 + 16 (n - 1)) for n pieces:
# a row's log and majorant cost about K^2 products per prime, the 9 stands
# for the powers, log1p and head sums, and each boundary between pieces adds
# about 12 ns per prime, 10 units.  numpy calls cost microseconds whatever
# the chunk, so pi(P) counts as at least 1000.  P = 1e7 at K = 16 passes for
# up to two pieces; P = 1e8 at K = 0 does not.
SERIES_WORK_CAP = 5 * 10**8


class DivergentWeightError(ValueError):
    """Weight whose zero set forbids exponent 1; every coefficient vanishes."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _inverse_power(pf: np.ndarray, e: int) -> np.ndarray:
    """pf ** -e, left at 0 wherever p^e >= 2^1076, as it rounds to 0 there.

    Results below the normal range take libm's slow path, about 17 times the
    cost of a normal power.  From e = 1076 on, e may be too large for a float.
    """
    import numpy as np

    if e >= 1076:
        return np.zeros(pf.shape)
    bound = 2.0 ** min(1076 / e, 1000)
    return np.power(pf, -float(e), out=np.zeros(pf.shape), where=pf < bound)


def _delta(pf: np.ndarray, forbidden: tuple) -> np.ndarray:
    """delta(p) = sum over forbidden [lo, hi] of p^-lo - p^-(hi+1), per prime.

    ``_delta_log_err`` bounds the error of log1p(-delta) as computed here.
    """
    import numpy as np

    d = np.zeros_like(pf)
    for iv in forbidden:
        d += _inverse_power(pf, iv.lo)
        if iv.hi is not None:
            d -= _inverse_power(pf, iv.hi + 1)
    return d


def _delta_log_err(forbidden: tuple) -> float:
    """Bound on the relative error of log1p(-_delta) as computed.

    Each power is within 4 ulp and n terms sum with n roundings, while
    sum |terms| <= 6 delta (the first forbidden interval gives
    delta >= p^-m (1 - 1/p)), so delta is within 6 (n + 8) u; log1p adds
    4 ulp and |log F| >= delta, giving (8n + 72) u.
    """
    n_terms = sum(1 if iv.hi is None else 2 for iv in forbidden)
    return (8 * n_terms + 72) * _U


def local_polys(primes: np.ndarray, w: ExponentWeight, K: int) -> np.ndarray:
    """Coefficient rows a_0..a_K of F(p; z), one column per prime.

    Row k holds a_k = (1 - 1/p) ([k = 0] + sum over i with w(i) = k of p^-i).
    A constant piece [lo, hi] of weight k <= K adds one block
    p^-lo - p^-(hi+1), its geometric sum times 1 - 1/p, and shares each power
    with its neighbours; a slope-1 piece adds (1 - 1/p) p^-i for each i of
    weight at most K.  Weights above K are left out.  Returns a
    (K + 1, len(primes)) array.
    """
    import numpy as np

    pf = np.asarray(primes, dtype=np.float64)
    if K < 0 or (pf.size and pf.min() < 2):
        raise ValueError("need p >= 2 and K >= 0")
    scale = 1.0 - 1.0 / pf
    rows = np.zeros((K + 1, pf.size))
    rows[0] = scale
    head = 1.0 / pf  # p^-lo of the current piece
    for iv, slope, offset in w.pieces:
        nxt = 0.0 if iv.hi is None else _inverse_power(pf, iv.hi + 1)
        if slope == 0:
            if offset <= K:
                rows[offset] += head - nxt
        else:
            top = K if iv.hi is None else min(K, iv.hi + offset)
            for deg in range(iv.lo + offset, top + 1):
                rows[deg] += scale * _inverse_power(pf, deg - offset)
        head = nxt
    return rows


def _log_rows(log0: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log F(p; z) = log a_0 + log(1 + r(z)) per prime, and its majorant.

    ``log0`` is log a_0, one entry per prime, and r[k - 1] holds
    r_k = a_k / a_0 >= 0 for k = 1..K.  The coefficients b_k of log(1 + r)
    follow c_k = k b_k = k r_k - sum_{0<j<k} c_j r_{k-j}, and those of the
    majorant B = -log(1 - r) the same recurrence with a plus sign, so that
    |b_k| <= B_k; both are divided by k at the end.  Returns the (K + 1, n)
    logs and the (K, n) majorant.
    """
    import numpy as np

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


def _enclose(w: ExponentWeight, K: int, m: int, P: int) -> euler._Bracket:
    """One engine call: d_0..d_K bracketed, factors p <= P multiplied out.

    Row error: each power is within 4 ulp, 1/p within 1 and 1 - 1/p within
    2.  A block b = p^-lo - p^-(hi+1) has p^-(hi+1) <= p^-lo / 2 <= b, so
    its inputs err by at most 4 u (p^-lo + p^-(hi+1)) <= 12 u b and it is
    within 13 u; a slope term (1 - 1/p) p^-i is within 7 u.  Adding n
    nonnegative terms rounds n times at most, so a_k is within (n_k + 13) u
    relative and r_k = a_k / a_0 within (n_k + n_0 + 27) u.  A piece puts at
    most one term in each row and a constant piece in one row only, so
    n_k + n_0 is at most the piece count plus the slope-piece count; 3 u
    more cover the second-order terms.  Powers that round to 0 leave out
    less than 2^-1074 per row, inside the engine's underflow allowance.

    Chunk sums: numpy's pairwise sum over a chunk adds at most g = 32 u of
    the summed magnitudes.  A log row 0 within e relative per prime sums to
    within (g + e / (1 - e)) / (1 - g) of its own magnitude; a row k >= 1
    within r of its majorant, and at most 1 + r times it, sums to within
    (r + g (1 + r)) / (1 - g) of the majorant's computed sum.
    """
    forbidden = complement(w.induced_pattern()).intervals
    log_rel_err = _delta_log_err(forbidden)
    terms = sum(1 + slope for _, slope, _ in w.pieces)
    rho = (terms + 30) * _U

    def rows_of(primes: array, needed: list[int]) -> tuple:
        import numpy as np

        pf = np.frombuffer(primes, dtype=np.int64).astype(np.float64)
        rows = local_polys(pf, w, K)
        rows[1:] /= rows[0]
        logs, majorant = _log_rows(np.log1p(-_delta(pf, forbidden)), rows[1:])
        heads = [float(np.sum(_inverse_power(pf, t))) for t in needed]
        return logs.sum(axis=1).tolist(), majorant.sum(axis=1).tolist(), heads

    g = 32 * _U
    rel = [(g + log_rel_err / (1 - log_rel_err)) / (1 - g)]
    rel += [(r + g * (1 + r)) / (1 - g) for r in _log_row_errors(K, rho)]
    # each power within 4 ulp, then the pairwise sum
    head_err = 4 * _U + g * (1 + 4 * _U) + _U
    return euler._bracketed_product(
        rows_of, rel, euler._deficiency(w.weight, K), m, P, head_err=head_err
    )


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
    work estimate pi(P) ((K + 9)^2 + 16 (n - 1)), with n the piece count and
    pi(P) bounded by RS_UPPER P / ln P but at least 1000, exceeds
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
    per_prime = (K + 9) ** 2 + 16 * (len(w.pieces) - 1)
    primes = max(RS_UPPER * truncation_prime / math.log(truncation_prime), 1000)
    work = primes * per_prime if per_prime <= SERIES_WORK_CAP else math.inf
    if work > SERIES_WORK_CAP:
        raise ResourceBudgetError(
            f"series work estimate {work:.3g} (primes up to {truncation_prime} "
            f"times {per_prime} units) exceeds cap {SERIES_WORK_CAP:.3g}"
        )
    if m is None:
        # w is 0 on every exponent, so every factor is 1
        one = (1.0,) + (0.0,) * K
        return DensitySeries(one, one, one, truncation_prime, 0.0)
    b = _enclose(w, K, m, truncation_prime)
    return DensitySeries(b.value, b.lower, b.upper, truncation_prime, 1.0 - math.fsum(b.value))
