"""The series engine against the per-prime loop it replaced, and `local_polys`.

The engine multiplies out the primes p <= P and encloses the rest, so its
d_k are full densities with brackets; the loop gave the truncated product
alone.  Each side is checked against the other's oracle: the engine's
brackets hold the 40-digit series, and the loop, completed by the 40-digit
product over p > P, lands in the engine's brackets up to the loop's own
roundoff.
"""

import functools
import math
import time

import mpmath
import numpy as np
import pytest
from helpers import (
    oracle_series,
    primes_upto,
    reference_density_series,
    reference_local_poly,
)

import expdens.euler
from expdens.cli import EXIT_RESOURCE, main
from expdens.patterns import parse_pattern
from expdens.primes import ResourceBudgetError
from expdens.series import ExponentWeight, density_series, local_polys

WEIGHTS = {
    "excess": ExponentWeight.excess(),
    "threshold2": ExponentWeight.threshold(2),
    "gaps": ExponentWeight.outside_pattern(parse_pattern("1..1,3..5,9..inf")),
}
KERNEL_WEIGHTS = {
    **WEIGHTS,
    "zero": ExponentWeight.zero(),
    "cubefree": ExponentWeight.outside_pattern(parse_pattern("1..2")),
}
U = 2.0**-53


@functools.cache
def reference(name: str, K: int, P: int):
    return reference_density_series(WEIGHTS[name], K, P)


# One-prime chunks stop at P = 1994, where every prime is already a chunk
# edge; at P = 2e5 they would add several seconds to the suite.
BLOCK_CASES = [
    (block, P)
    for block in (1, 7, 4096)
    for P in (2, 1000, 1994, 2 * 10**5)
    if block > 1 or P <= 1994
]


@pytest.mark.parametrize("K", [0, 1, 8, 16])
@pytest.mark.parametrize("name", sorted(WEIGHTS))
@pytest.mark.parametrize("block, P", BLOCK_CASES)
def test_density_series_matches_per_prime_loop(name, K, P, block, monkeypatch):
    # `block` primes per chunk
    monkeypatch.setattr(expdens.euler, "_FSUM_CHUNK", block * (2 * K + 1))
    w = WEIGHTS[name]
    got = density_series(w, K, P)
    # reduction mod z^(K+1) is a ring homomorphism, so one K = 16 oracle serves every K
    truth = oracle_series(w, 16)[: K + 1]
    beyond = oracle_series(w, 16, P)[: K + 1]
    loop = reference(name, K, P)
    assert got.truncation_prime == P
    with mpmath.workdps(50):
        for k in range(K + 1):
            assert mpmath.mpf(got.lower[k]) <= truth[k] <= mpmath.mpf(got.upper[k])
            completed = mpmath.fsum(mpmath.mpf(loop[j]) * beyond[k - j] for j in range(k + 1))
            slack = 2 * len(primes_upto(P)) * (K + 3) * U * completed
            assert got.lower[k] - slack <= completed <= got.upper[k] + slack
        widths = math.fsum(hi - lo for lo, hi in zip(got.lower, got.upper))
        assert abs(got.mass_deficit - (1 - mpmath.fsum(truth))) <= widths + 1e-15


@pytest.mark.parametrize("K", [0, 1, 2, 8, 16])
@pytest.mark.parametrize("name", sorted(KERNEL_WEIGHTS))
def test_local_polys_match_scalar_reference(name, K):
    w = KERNEL_WEIGHTS[name]
    primes = np.concatenate(
        [primes_upto(20_000), [999_983, 1_000_003, 10**9 + 7, 2**61 - 1]]
    )
    rows = local_polys(primes, w, K)
    assert rows.shape == (K + 1, len(primes))
    # numpy powers and the scalar loop's x**i differ by a few ulp at most
    for p, row in zip(primes.tolist(), rows.T):
        want = reference_local_poly(p, w, K)
        assert row.tolist() == pytest.approx(want, rel=64 * U, abs=1e-300)


def test_local_polys_validation():
    with pytest.raises(ValueError):
        local_polys(np.array([2, 1]), WEIGHTS["excess"], 3)
    with pytest.raises(ValueError):
        local_polys(np.array([2]), WEIGHTS["excess"], -1)
    rows = local_polys(np.array([], dtype=np.int64), WEIGHTS["excess"], 3)
    assert rows.shape == (4, 0)


class _Admitted(Exception):
    pass


def _refuse_to_sieve(limit):
    raise _Admitted(limit)


class TestWorkCap:
    @pytest.mark.parametrize(
        "K, P", [(16, 10**7), (16, 10**6), (8, 10**6), (8, 10**5), (16, 2 * 10**5)]
    )
    def test_admits(self, K, P, monkeypatch):
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        with pytest.raises(_Admitted):
            density_series(WEIGHTS["excess"], K, P)

    @pytest.mark.parametrize("K, P", [(8, 10**8), (16, 10**8), (0, 10**9), (0, 10**8)])
    def test_refuses_before_sieving(self, K, P, monkeypatch):
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        with pytest.raises(ResourceBudgetError):
            density_series(WEIGHTS["excess"], K, P)

    def test_pieces_count(self, monkeypatch):
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        # two pieces still fit at P = 1e7 and K = 16
        with pytest.raises(_Admitted):
            density_series(WEIGHTS["threshold2"], 16, 10**7)
        # 2000 terms make 4000 pieces, about 7e8 units at the default P and K
        odd = parse_pattern(",".join(str(i) for i in range(1, 4000, 2)))
        with pytest.raises(ResourceBudgetError):
            density_series(ExponentWeight.outside_pattern(odd))

    def test_cli_exits_3_fast(self, capsys):
        start = time.perf_counter()
        code = main(["series", "--pattern", "1..1", "--truncation", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds cap" in captured.err

    def test_cli_high_degree_exits_3_fast(self, capsys):
        # the cost per prime is quadratic in K, so a small P does not save it
        start = time.perf_counter()
        code = main(
            ["series", "--pattern", "1..1", "--truncation", "1000", "--degree", "40000"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds cap" in captured.err
