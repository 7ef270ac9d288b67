"""Reference values for the benchmark, computed without expdens.

Densities come from mpmath at 40 digits: zeta quotients directly, and Euler
products as an exact product over the primes below 1000 times a prime-zeta
expansion of the remaining factors.  k-free counts come from the Moebius sum
sum_d mu(d) floor(x / d^k).

The two pattern counts that have no such one-line formula are recorded as
integers.  Running this file recomputes them by Dirichlet convolution (the
indicator f of the pattern is 1 * g with g supported on a few prime powers,
so the count is sum_d g(d) floor(x / d)) and checks the recorded values:

    python3 perfbench/references.py
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath

mpmath.mp.dps = 40

X = 10**7
# Count of n <= 10^7 with no prime exponent equal to 2 (pattern 1..1,3..inf).
NO_SQUARE_EXPONENT_COUNT = 7485487
# Count of n <= 10^7 allowed by odd_squarefree.json: odd, exponents <= 2 at
# 3, 5 and 7, squarefree elsewhere.
ODD_SQUAREFREE_SPEC_COUNT = 4617976

_DIRECT_LIMIT = 1000
_SERIES_DEGREE = 30


def _primes_upto(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def _mobius_upto(n: int) -> list[int]:
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in _primes_upto(n):
        for m in range(p, n + 1, p):
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def inverse_zeta(k: int) -> mpmath.mpf:
    """1 / zeta(k): the density of the (k-1)-free integers."""
    return 1 / mpmath.zeta(k)


def _series_quotient(num: list[int], den: list[int]) -> list[Fraction]:
    """Power-series coefficients of num(x) / den(x), den[0] = 1."""
    out: list[Fraction] = []
    for t in range(_SERIES_DEGREE + 1):
        c = Fraction(num[t] if t < len(num) else 0)
        c -= sum(den[i] * out[t - i] for i in range(1, min(t, len(den) - 1) + 1))
        out.append(c)
    return out


def _neg_log_one_minus(u: list[Fraction]) -> list[Fraction]:
    """Coefficients of -log(1 - u(x)) for a series u with u[0] = 0."""
    out = [Fraction(0)] * (_SERIES_DEGREE + 1)
    power = [Fraction(1)] + [Fraction(0)] * _SERIES_DEGREE
    for j in range(1, _SERIES_DEGREE + 1):
        power = [
            sum(power[i] * u[t - i] for i in range(t + 1))
            for t in range(_SERIES_DEGREE + 1)
        ]
        if not any(power):
            break
        out = [o + c / j for o, c in zip(out, power)]
    return out


def euler_product(num: tuple[int, ...], den: tuple[int, ...]) -> mpmath.mpf:
    """prod over primes p of 1 - u(1/p), where u = num / den as polynomials.

    Coefficient lists start at x^0; u must vanish to order 2 at x = 0.
    """
    def u_at(x):
        return mpmath.polyval(list(reversed(num)), x) / mpmath.polyval(
            list(reversed(den)), x
        )

    small = _primes_upto(_DIRECT_LIMIT)
    head = mpmath.fprod(1 - u_at(mpmath.mpf(1) / p) for p in small)
    c = _neg_log_one_minus(_series_quotient(list(num), list(den)))
    tail = mpmath.mpf(0)
    for t in range(2, _SERIES_DEGREE + 1):
        if c[t]:
            rest = mpmath.primezeta(t) - mpmath.fsum(mpmath.mpf(p) ** -t for p in small)
            tail += mpmath.mpf(c[t].numerator) / c[t].denominator * rest
    return head * mpmath.exp(-tail)


@lru_cache(maxsize=None)
def density(name: str) -> float:
    """Reference density for a named set, rounded once to float."""
    z2 = inverse_zeta(2)
    if name == "squarefree":
        value = z2
    elif name == "cubefree":
        value = inverse_zeta(3)
    elif name == "no_square_exponent":
        # exponents 1 or >= 3: F(p) = 1 - p^-2 + p^-3
        value = euler_product((0, 0, 1, -1), (1,))
    elif name == "exp_odd":
        # every exponent odd: F(p) = 1 - 1 / (p (p + 1))
        value = euler_product((0, 0, 1), (1, 1))
    elif name == "mod3":
        # every exponent = 1 mod 3: F(p) = 1 - (p^2 - 1) / (p (p^3 - 1))
        value = euler_product((0, 0, 1, 0, -1), (1, 0, 0, -1))
    elif name == "odd_squarefree_spec":
        value = z2 * mpmath.mpf(1) / 2 / (mpmath.mpf(3) / 4)
        for p in (3, 5, 7):
            value *= (1 - mpmath.mpf(p) ** -3) / (1 - mpmath.mpf(p) ** -2)
    elif name == "ex1_q3_k2":
        value = z2 * (mpmath.mpf(1) / 2) * (mpmath.mpf(2) / 3)
        value /= (mpmath.mpf(3) / 4) * (mpmath.mpf(8) / 9)
    elif name == "ex2_2_k2":
        value = z2 * mpmath.mpf(2) / 3
    elif name == "ex3_single_2_k2":
        value = z2 * mpmath.mpf(4) / 3
    elif name == "ex3_k2":
        # 1 + sum_p 1/(p^2 - 1), with 1/(p^2 - 1) = sum_j p^(-2j)
        small = _primes_upto(_DIRECT_LIMIT)
        s = mpmath.fsum(1 / (mpmath.mpf(p) ** 2 - 1) for p in small)
        for j in range(1, _SERIES_DEGREE // 2 + 1):
            s += mpmath.primezeta(2 * j) - mpmath.fsum(
                mpmath.mpf(p) ** (-2 * j) for p in small
            )
        value = z2 * (1 + s)
    else:
        raise KeyError(name)
    return float(value)


@lru_cache(maxsize=None)
def kfree_count(x: int, k: int) -> int:
    """Number of k-free n <= x, by sum_d mu(d) floor(x / d^k)."""
    root = int(x ** (1.0 / k)) + 1
    mu = _mobius_upto(root)
    return sum(mu[d] * (x // d**k) for d in range(1, root + 1) if d**k <= x)


def _no_square_exponent_count(x: int) -> int:
    # g(p^2) = -1, g(p^3) = +1: d = a^2 b^3 with a, b squarefree and coprime.
    mu = _mobius_upto(math.isqrt(x))
    total = 0
    for b in range(1, int(round(x ** (1 / 3))) + 2):
        if b**3 > x or mu[b] == 0:
            continue
        for a in range(1, math.isqrt(x // b**3) + 1):
            if mu[a] and math.gcd(a, b) == 1:
                total += mu[a] * (x // (a * a * b**3))
    return total


def _odd_squarefree_spec_count(x: int) -> int:
    # g(2) = -1; g(p^3) = -1 for p in {3, 5, 7}; g(p^2) = -1 for p > 7.
    mu = _mobius_upto(max(math.isqrt(x), 105))
    cubes = [(c, mu[c]) for c in (1, 3, 5, 7, 15, 21, 35, 105)]
    total = 0
    for m in range(1, math.isqrt(x) + 1):
        if mu[m] == 0 or math.gcd(m, 210) != 1:
            continue
        for two in (1, 2):
            for c, mu_c in cubes:
                d = two * c**3 * m * m
                if d <= x:
                    total += (-1 if two == 2 else 1) * mu_c * mu[m] * (x // d)
    return total


def main() -> int:
    checks = [
        ("no_square_exponent count", NO_SQUARE_EXPONENT_COUNT, _no_square_exponent_count(X)),
        ("odd_squarefree_spec count", ODD_SQUAREFREE_SPEC_COUNT, _odd_squarefree_spec_count(X)),
    ]
    bad = 0
    for label, recorded, recomputed in checks:
        ok = recorded == recomputed
        bad += not ok
        print(f"{label:<28} recorded {recorded}  recomputed {recomputed}  "
              f"{'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
