"""The series engine against the per-prime loop it replaced, and its row builder.

The engine multiplies out the primes up to 1000 and encloses the rest, so
its d_k are full densities with brackets whatever P is; the loop gave the
product over p <= P alone.  Each side is checked against the other's oracle: the engine's
brackets hold the 40-digit series, and the loop, completed by the 40-digit
product over p > P, lands in the engine's brackets up to the loop's own
roundoff.
"""

import functools
import math
import re
import time

import mpmath
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
from expdens.series import (
    SERIES_WORK_CAP,
    ExponentWeight,
    _row_exponents,
    density_series,
)

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


# `block` primes per segment of the sieve that the engine reads; one-prime
# segments run with P <= 1994 only.
BLOCK_CASES = [
    (block, P)
    for block in (1, 7, 4096)
    for P in (2, 1000, 1994, 2 * 10**5)
    if block > 1 or P <= 1994
]


def _segments_of(block: int):
    sieve = expdens.euler.prime_segments

    def segments(limit):
        for seg in sieve(limit):
            for i in range(0, len(seg), block):
                yield seg[i : i + block]

    return segments


@pytest.mark.parametrize("K", [0, 1, 8, 16])
@pytest.mark.parametrize("name", sorted(WEIGHTS))
@pytest.mark.parametrize("block, P", BLOCK_CASES)
def test_density_series_matches_per_prime_loop(name, K, P, block, monkeypatch):
    w = WEIGHTS[name]
    whole = density_series(w, K, P)
    monkeypatch.setattr(expdens.euler, "prime_segments", _segments_of(block))
    got = density_series(w, K, P)
    # the head is one product over the primes, however they are cut
    assert (got.coeffs, got.lower, got.upper) == (whole.coeffs, whole.lower, whole.upper)
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
    # the columns of delta(p) = 1 - a_0 and a_1..a_K of F(p; z) as
    # `density_series` gives them to the engine
    w = KERNEL_WEIGHTS[name]
    exps = _row_exponents(w, K)
    assert len(exps) == K + 1
    primes = primes_upto(20_000).tolist() + [999_983, 1_000_003, 10**9 + 7, 2**61 - 1]
    (nums, dens), *rest = [expdens.euler._delta_quotients(primes, e) for e in exps]
    assert len(rest) == K
    a_0 = [(den - num) / den for num, den in zip(nums, dens, strict=True)]
    a_k = [[n / d for n, d in zip(*col, strict=True)] for col in rest]
    # each quotient is exact to 2^-1100 and rounds once; the scalar loop's
    # x**i differ by a few ulp at most
    for p, *row in zip(primes, a_0, *a_k, strict=True):
        want = reference_local_poly(p, w, K)
        assert row == pytest.approx(want, rel=64 * U, abs=1e-300)


def test_local_polys_validation():
    with pytest.raises(ValueError):
        _row_exponents(WEIGHTS["excess"], -1)
    assert _row_exponents(WEIGHTS["excess"], 0) == ((2,),)


class _Admitted(Exception):
    pass


def _refuse_to_sieve(limit):
    raise _Admitted(limit)


class TestWorkCap:
    # no prime above 1000 is sieved, so any P within the sieve budget passes
    @pytest.mark.parametrize(
        "K, P", [(16, 10**7), (16, 10**6), (8, 10**6), (8, 10**5), (16, 2 * 10**5),
                 (8, 10**8), (16, 10**8), (0, 10**8)]
    )
    def test_admits(self, K, P, monkeypatch):
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        with pytest.raises(_Admitted) as exc:
            density_series(WEIGHTS["excess"], K, P)
        assert exc.value.args == (1000,)

    @pytest.mark.parametrize("K, P", [(0, 10**9), (8, 10**9), (200, 10**8)])
    def test_refuses_before_sieving(self, K, P, monkeypatch):
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        with pytest.raises(ResourceBudgetError):
            density_series(WEIGHTS["excess"], K, P)

    def test_pieces_count(self, monkeypatch):
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        # two pieces still fit at P = 1e7 and K = 16
        with pytest.raises(_Admitted):
            density_series(WEIGHTS["threshold2"], 16, 10**7)
        # 2000 terms make 4000 pieces; a row keeps only the exponents below
        # its 2^1100 cut, so the pieces add no work per prime
        odd = parse_pattern(",".join(str(i) for i in range(1, 4000, 2)))
        with pytest.raises(_Admitted):
            density_series(ExponentWeight.outside_pattern(odd))

    @pytest.mark.parametrize("K, P, admitted", [(190, 1000, True), (200, 1000, False),
                                                (200, 10**5, False), (400, 2, False)])
    def test_degree_alone(self, K, P, admitted, monkeypatch):
        # the rows and the engine's series cost about K^2 whatever P is
        monkeypatch.setattr(expdens.euler, "prime_segments", _refuse_to_sieve)
        with pytest.raises(_Admitted if admitted else ResourceBudgetError):
            density_series(WEIGHTS["excess"], K, P)

    @pytest.mark.parametrize("name", ["excess", "threshold2"])
    def test_largest_degree_in_bounded_time(self, name):
        # K = 198 is the largest admitted degree, at any P
        start = time.perf_counter()
        ds = density_series(WEIGHTS[name], 198, 1000)
        assert time.perf_counter() - start < 1.5
        assert len(ds.coeffs) == 199
        with pytest.raises(ResourceBudgetError):
            density_series(WEIGHTS[name], 199, 1000)

    def test_exact_zero_needs_no_rerun(self):
        # no exponent has weight 1, so d_1 = 0 exactly: it is published as
        # [0, 0], and the rerun's width is set by the other coefficients
        w = ExponentWeight(((1, 0, 0), (2, 0, 2), (3, 1, 0)))
        start = time.perf_counter()
        ds = density_series(w, 198, 1000)
        assert time.perf_counter() - start < 1.5
        assert (ds.coeffs[1], ds.lower[1], ds.upper[1]) == (0.0, 0.0, 0.0)
        assert min(ds.lower[2:]) > 0.0

    def test_cli_exits_3_fast(self, capsys):
        # P = 1e9 is past the sieve budget, though nothing above 1000 is sieved
        start = time.perf_counter()
        code = main(["series", "--pattern", "1..1", "--truncation", "1000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds budget" in captured.err

    def test_cli_admits_1e8_fast(self, capsys):
        start = time.perf_counter()
        code = main(["series", "--pattern", "1..1", "--truncation", "100000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert "truncation_prime=100000000" in capsys.readouterr().out
        # the brackets are those of P = 1000
        w = ExponentWeight.outside_pattern(parse_pattern("1..1"))
        far, near = density_series(w, 8, 10**8), density_series(w, 8, 1000)
        assert (far.coeffs, far.lower, far.upper) == (near.coeffs, near.lower, near.upper)

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
        _assert_estimate_above_cap(captured.err)

    def test_cli_first_refused_degree_prints_its_estimate(self, capsys):
        # (168 + 64) (199 + 9)^2 = 10037248 is 0.4% above the cap: printed to
        # three digits, both numbers read 1e+07
        assert main(["series", "--weight", "delta", "--degree", "199"]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert _assert_estimate_above_cap(captured.err) == (10037248, SERIES_WORK_CAP)


def _assert_estimate_above_cap(err: str) -> tuple[int, int]:
    """The work estimate and cap an exit-3 message prints, as integers, the first above."""
    found = re.search(r"work estimate (\d+) \(degree \d+\) exceeds cap (\d+)", err)
    assert found, err
    estimate, cap = map(int, found.groups())
    assert estimate > cap, err
    return estimate, cap
