"""The blocked series kernel against the per-prime loop it replaced.

The blocked builder performs the same float operations as the scalar loop,
so every comparison here is exact equality, not a tolerance.
"""

import functools
import time

import numpy as np
import pytest
from helpers import primes_upto, reference_density_series, reference_local_poly

import expdens.series
from expdens.cli import EXIT_RESOURCE, main
from expdens.patterns import parse_pattern
from expdens.primes import ResourceBudgetError
from expdens.series import ExponentWeight, density_series, local_poly, local_polys

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


@functools.cache
def reference(name: str, K: int, P: int):
    return reference_density_series(WEIGHTS[name], K, P)


# P // 2 = 997 is prime, so the half-truncation snapshot must come after it.
# One-prime blocks stop at P = 1994, where every prime is already a block
# edge; at P = 2e5 they would add about 15 s to the suite.
BLOCK_CASES = [
    (block, P)
    for block in (1, 7, expdens.series.BLOCK_SIZE)
    for P in (2, 1000, 1994, 2 * 10**5)
    if block > 1 or P <= 1994
]


@pytest.mark.parametrize("K", [0, 1, 8, 16])
@pytest.mark.parametrize("name", sorted(WEIGHTS))
@pytest.mark.parametrize("block, P", BLOCK_CASES)
def test_density_series_matches_per_prime_loop(name, K, P, block, monkeypatch):
    monkeypatch.setattr(expdens.series, "BLOCK_SIZE", block)
    got = density_series(WEIGHTS[name], K, P)
    want = reference(name, K, P)
    assert got.coeffs == want.coeffs
    assert got.stability == want.stability
    assert got.mass_deficit == want.mass_deficit
    assert got.truncation_prime == want.truncation_prime


@pytest.mark.parametrize("K", [0, 1, 2, 8, 16])
@pytest.mark.parametrize("name", sorted(KERNEL_WEIGHTS))
def test_local_polys_match_scalar_reference(name, K):
    w = KERNEL_WEIGHTS[name]
    primes = np.concatenate(
        [primes_upto(20_000), [999_983, 1_000_003, 10**9 + 7, 2**61 - 1]]
    )
    rows, dropped = local_polys(primes, w, K)
    assert rows.shape == (len(primes), K + 1)
    for p, row, d in zip(primes.tolist(), rows, dropped.tolist()):
        want = reference_local_poly(p, w, K)
        assert tuple(row.tolist()) == want.coeffs
        assert d == want.dropped
    for p in primes[::97].tolist():
        assert local_poly(p, w, K) == reference_local_poly(p, w, K)


def test_local_polys_validation():
    with pytest.raises(ValueError):
        local_polys(np.array([2, 1]), WEIGHTS["excess"], 3)
    with pytest.raises(ValueError):
        local_polys(np.array([2]), WEIGHTS["excess"], -1)
    rows, dropped = local_polys(np.array([], dtype=np.int64), WEIGHTS["excess"], 3)
    assert rows.shape == (0, 4) and dropped.shape == (0,)


class _Admitted(Exception):
    pass


def _refuse_to_sieve(limit):
    raise _Admitted(limit)


class TestWorkCap:
    @pytest.mark.parametrize(
        "K, P", [(16, 10**7), (16, 10**6), (8, 10**6), (8, 10**5), (16, 2 * 10**5)]
    )
    def test_admits(self, K, P, monkeypatch):
        monkeypatch.setattr(expdens.series, "sieve_primes", _refuse_to_sieve)
        with pytest.raises(_Admitted):
            density_series(WEIGHTS["excess"], K, P)

    @pytest.mark.parametrize("K, P", [(8, 10**8), (16, 10**8), (0, 10**9), (0, 10**8)])
    def test_refuses_before_sieving(self, K, P, monkeypatch):
        monkeypatch.setattr(expdens.series, "sieve_primes", _refuse_to_sieve)
        with pytest.raises(ResourceBudgetError):
            density_series(WEIGHTS["excess"], K, P)

    def test_cli_exits_3_fast(self, capsys):
        start = time.perf_counter()
        code = main(["series", "--pattern", "1..1", "--truncation", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds cap" in captured.err
