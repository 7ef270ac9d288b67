import copy
import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import expdens.euler
import expdens.patterns
import expdens.primes
from expdens.cli import _CATALOG_ROWS
from expdens.euler import (
    MIN_TRUNCATION,
    DensityEstimate,
    UnreachableTargetError,
    brackets_overlap,
    closed_form,
    density,
    local_factor_interval,
    prime_sum,
    zeta_int,
)
from expdens.patterns import (
    EMPTY_PATTERN,
    PrimeAwarePattern,
    complement,
    contains,
    load_spec,
    min_forbidden,
    normalize_intervals,
    parse_pattern,
    parse_prime_aware,
)
from expdens.primes import sieve_primes
from expdens.series import ExponentWeight, _row_exponents, density_series
from helpers import (
    assert_below_partial,
    deficiency_reference,
    dense_neglog_coeffs,
    exact_head,
    exact_head_poly,
    exp_odd_factor,
    free_at_one_weights,
    gap_factor,
    inverse_zeta,
    local_factor_general,
    mod_periodic_factor,
    oracle_density,
    oracle_mod_periodic,
    oracle_prime_sum,
    partial_euler_product,
    prime_tail,
    random_pattern,
    random_small_pap,
    small_weights,
    tail_1000,
    tail_1000_by_moebius,
    tail_table,
    table_weight,
)
from test_bracket_guard import SWEEP_WEIGHTS

SQUAREFREE = PrimeAwarePattern(default=parse_pattern("1..1"))


class TestZeta:
    def test_zeta2_against_pi(self):
        z = zeta_int(2)
        assert abs(z.value - math.pi**2 / 6) <= 1e-12
        assert abs(z.value - math.pi**2 / 6) <= z.error

    def test_zeta3_against_direct_summation(self):
        n = np.arange(1, 10**7 + 1, dtype=np.float64)
        oracle = float(np.sum(n**-3.0))  # tail past 1e7 is ~5e-15
        assert abs(zeta_int(3).value - oracle) <= 1e-12

    def test_against_scipy(self):
        for s in (2, 3, 4, 7, 12):
            assert zeta_int(s).value == pytest.approx(
                float(scipy.special.zeta(s, 1)), abs=1e-13
            )

    def test_large_s_dominant_terms(self):
        for s in (50, 60):
            expected = 1.0 + 2.0**-s + 3.0**-s
            assert zeta_int(s).value == pytest.approx(expected, abs=1e-15)

    def test_rejects_s_below_two(self):
        with pytest.raises(ValueError):
            zeta_int(1)

    def test_error_bars_hold_against_mpmath(self):
        # past s = 64 the engine's tail is its cut alone, and from s = 248 on
        # zeta(s) rounds to 1.0 with d_0's upper end capped at 1
        with mpmath.workdps(40):
            for s in [*range(2, 301), 1000, 2000]:
                z = zeta_int(s)
                assert abs(mpmath.mpf(z.value) - mpmath.zeta(s)) <= z.error
                assert z.error <= 2.5e-16 * z.value

    def test_prime_zeta_error_bars_hold_against_mpmath(self):
        with mpmath.workdps(40):
            for s in range(2, 129):
                pz = expdens.euler._prime_zeta(s)
                assert abs(mpmath.mpf(pz.value) - mpmath.primezeta(s)) <= pz.error
                assert pz.error <= 2.5e-16 * pz.value


class TestRatio:
    @staticmethod
    def _carry_witnesses():
        """(n, d) whose floor(n 2^q / d), q as ``_ratio`` takes it, is inexact
        and ends in as many one bits as ``_to_float`` shifts off: its ceiling
        carries into the 53 kept bits, so a lower end rounded up would be the
        float above n / d."""
        found = []
        for n in range(1, 4):
            for d in range(2, 20000):
                q = d.bit_length() + 64
                M, r = divmod(n << q, d)
                shift = M.bit_length() - 53
                if r and M & ((1 << shift) - 1) == (1 << shift) - 1:
                    found.append((n, d))
        return found

    def test_lower_end_is_a_floor(self):
        witnesses = self._carry_witnesses()
        assert (1, 8193) in witnesses and len(witnesses) >= 5
        for n, d in witnesses:
            for num, den in (((n, n, 0), (d, d, 0)), ((n, n + 1, 0), (d - 1, d, 0))):
                r = expdens.euler._ratio(num, den)
                lower = Fraction(r.value) - Fraction(r.error)
                assert lower <= Fraction(num[0], den[1]), (num, den)
                upper = Fraction(r.value) + Fraction(r.error)
                assert upper >= Fraction(num[1], den[0]), (num, den)


class TestTailTable:
    """``_TAIL_1000`` holds T_t(1000) = sum_{p > 1000} p^-t between adjacent floats."""

    def test_regenerated_from_mpmath(self):
        assert list(expdens.euler._TAIL_1000) == tail_table()

    def test_rows_enclose_the_tail(self):
        for t, (lo, hi) in enumerate(expdens.euler._TAIL_1000, start=2):
            assert hi == math.nextafter(lo, math.inf)
            assert lo <= tail_1000(t) <= hi

    @pytest.mark.parametrize("t", range(2, 65))
    def test_prime_zeta_against_moebius_inversion(self, t):
        exact = tail_1000(t)
        with mpmath.workdps(60):
            assert abs(tail_1000_by_moebius(t) - exact) <= 1e-40 * exact


class TestTailSums:
    """Each T_t = sum_{p > 1000} p^-t lies in its fixed-point tail enclosure."""

    @pytest.mark.parametrize("P", [1000])
    def test_enclosures_hold_against_mpmath(self, P):
        euler = expdens.euler
        W = euler._W_FIRST
        cut = -(-(euler._CUT[0] << W) // euler._CUT[1])
        for t in range(2, euler._SERIES_DEGREE + 1):
            # -b_t / t = 1 at t alone
            lo, hi = euler._tail_fixed([-t * (s == t) for s in range(65)], W)
            table_lo, table_hi = euler._TAIL_1000[t - 2]
            with mpmath.workdps(60):
                truth = prime_tail(P, t) * 2**W
                assert lo <= truth <= hi, (t, lo, hi, truth)
            # the table's ulp, one rounding at each end, and the cut
            assert hi - lo <= (Fraction(table_hi) - Fraction(table_lo)) * 2**W + 2 + 2 * cut


class TestPrimeSum:
    def test_first_three_terms_are_half(self):
        assert Fraction(1, 3) + Fraction(1, 8) + Fraction(1, 24) == Fraction(1, 2)

    def test_k2_against_direct_summation(self):
        p = np.asarray(sieve_primes(10**7).primes, dtype=np.float64)
        oracle = float(np.sum(1.0 / (p**2 - 1.0)))
        # the oracle itself misses ~7e-9 of tail beyond 1e7
        assert abs(prime_sum(2).value - oracle) <= 1e-8
        assert prime_sum(2).value >= oracle

    def test_k2_value(self):
        # frozen from an independent high-precision evaluation
        assert prime_sum(2).value == pytest.approx(0.5516932976569992, abs=1e-10)

    def test_k10_dominant_terms(self):
        two_terms = 1.0 / (2**10 - 1) + 1.0 / (3**10 - 1)
        assert prime_sum(10).value == pytest.approx(two_terms, abs=2e-7)
        # and exactly (tail beyond 100 is ~1e-18) against a short direct sum
        exact = sum(1.0 / (p**10 - 1) for p in sieve_primes(100).primes.tolist())
        assert prime_sum(10).value == pytest.approx(exact, abs=1e-12)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            prime_sum(1)

    def test_error_bars_hold_against_oracle(self):
        for k in range(2, 65):
            ps = prime_sum(k)
            with mpmath.workdps(40):
                assert abs(mpmath.mpf(ps.value) - oracle_prime_sum(k)) <= ps.error
            assert ps.error <= 2.5e-16 * ps.value


class TestLocalFactors:
    def test_interval_form_squarefree_at_two(self):
        assert local_factor_interval(2, parse_pattern("1..1")).value == 0.75

    def test_interval_form_all_allowed(self):
        assert local_factor_interval(2, parse_pattern("1..inf")).value == 1.0

    def test_interval_form_gap_pattern(self):
        got = local_factor_interval(3, parse_pattern("1..1,3..inf")).value
        assert got == pytest.approx(25 / 27, abs=1e-16)

    def test_general_form_squarefree_at_two(self):
        assert local_factor_general(2, parse_pattern("1..1")).value == 0.75

    def test_general_form_all_allowed(self):
        for p in (2, 3, 97):
            assert local_factor_general(p, parse_pattern("1..inf")).value == 1.0

    def test_general_form_empty_pattern(self):
        assert local_factor_general(2, EMPTY_PATTERN).value == 0.5

    def test_even_forbidden_geometric_sum(self):
        # allowed = odd exponents (not an interval pattern): forbidden sum at
        # p=2 is sum over even i of 2^-i = 1/3, so the factor is
        # 1 - (1/2)(1/3) = 5/6, the exponentially-odd local factor.
        forbidden = sum(Fraction(1, 2**i) for i in range(2, 200, 2))
        assert abs(forbidden - Fraction(1, 3)) < Fraction(1, 2**190)
        factor = 1 - Fraction(1, 2) * Fraction(1, 3)
        assert factor == Fraction(5, 6)
        p = np.array([2.0])
        assert 1.0 - 1.0 / (p * (p + 1.0))[0] == pytest.approx(5 / 6, abs=1e-16)

    def test_forms_agree_on_random_patterns(self):
        rng = random.Random(1337)
        primes = sieve_primes(1000).primes.tolist()
        for _ in range(200):
            pattern = random_pattern(rng)
            for p in rng.sample(primes, 12):
                a = local_factor_interval(p, pattern).value
                b = local_factor_general(p, pattern).value
                assert abs(a - b) <= 1e-14 * max(a, b)

    def test_bounds_and_unit_factor_criterion(self):
        rng = random.Random(2024)
        for _ in range(100):
            pattern = random_pattern(rng)
            m = min_forbidden(pattern)
            for p in (2, 3, 5, 101):
                v = local_factor_interval(p, pattern).value
                assert v <= 1.0
                if m is not None:
                    # compare against the exact rational bound: float rounding
                    # is monotone, so the exact inequality survives it
                    assert v >= float(1 - Fraction(1, p**m))
                assert (v == 1.0) == (m is None)

    def test_monotone_under_pattern_inclusion(self):
        rng = random.Random(99)
        for _ in range(100):
            big = random_pattern(rng)
            if not big.intervals:
                continue
            # shrink: drop one interval, or clip the first one
            ivs = list(big.intervals)
            if len(ivs) > 1 and rng.random() < 0.5:
                ivs.pop(rng.randrange(len(ivs)))
            else:
                lo, hi = ivs[0]
                if hi is not None and hi < lo + 1:
                    ivs.pop(0)
                else:
                    ivs[0] = (lo + 1, hi)
            small = normalize_intervals(ivs)
            for alpha in range(1, 50):
                if contains(small, alpha):
                    assert contains(big, alpha)
            for p in (2, 3, 13):
                assert (
                    local_factor_interval(p, small).value
                    <= local_factor_interval(p, big).value
                )


def deltas(primes, exps):
    """delta(p) of each prime as the product engine rounds it: num / den, once."""
    return [num / den for num, den in zip(*expdens.euler._delta_quotients(primes, exps))]


def exact_delta(p, pattern):
    """1 - F(p) in exact rationals, from the forbidden intervals."""
    delta = Fraction(0)
    for lo, hi in complement(pattern).intervals:
        delta += Fraction(1, p**lo)
        if hi is not None:
            delta -= Fraction(1, p ** (hi + 1))
    return delta


DELTA_PATTERNS = ["1..1", "1..2", "1..1,3..inf", "1..2,5..inf", "1,3,5", "", "2..inf",
                  "1..1,4..6,9..inf", "1..inf"]


class TestDelta:
    @pytest.mark.parametrize("text", DELTA_PATTERNS)
    @pytest.mark.parametrize("p", [2, 3, 997, 9999991])
    def test_correctly_rounded(self, p, text):
        pattern = parse_pattern(text)
        exps = expdens.euler._delta_exponents(pattern)
        truth = exact_delta(p, pattern)
        assert deltas((p,), exps) == [float(truth)]
        assert local_factor_interval(p, pattern).value == float(1 - truth)

    @pytest.mark.parametrize("p", [2, 3, 997, 9999991])
    @pytest.mark.parametrize("text", ["1..1,40..60,70..inf", "1..1,600..inf", "1..1,1100..2000",
                                      "1..1097", "1..1,3..3000"])
    def test_dropped_terms_stay_below_the_charged_bound(self, p, text):
        pattern = parse_pattern(text)
        exps = expdens.euler._delta_exponents(pattern)
        (num,), (den,) = expdens.euler._delta_quotients((p,), exps)
        dropped = abs(Fraction(num, den) - exact_delta(p, pattern))
        assert dropped <= Fraction(1, 2**1100)
        assert den < 2**2200
        # 1e8 exceptional primes, each dropping at most 2^-1100 from delta and
        # so at most 2^-1100 / 0.6 relative from its factor, stay below the
        # one unit charged at the widest W
        assert Fraction(10**8 * 2, 2**1100) / Fraction(3, 5) <= Fraction(1, 2**expdens.euler._W_CAP)

    @pytest.mark.parametrize("text", DELTA_PATTERNS + ["1..1,40..60,70..inf", "1..1,600..inf",
                                                       "1..1,3..3000"])
    def test_chunk_matches_one_prime_at_a_time(self, text):
        # a chunk across bit lengths 2 to 17 takes each length's own cut
        pattern = parse_pattern(text)
        exps = expdens.euler._delta_exponents(pattern)
        primes = sieve_primes(100_000).primes
        chunk = deltas(primes, exps)
        assert chunk == [d for p in primes for d in deltas((p,), exps)]
        for p, d in zip(primes[::97], chunk[::97]):
            # within u of the kept terms, which are within 2^-1100 of delta
            bound = Fraction(d) / 2**53 + Fraction(1, 2**1100)
            assert abs(Fraction(d) - exact_delta(p, pattern)) <= bound

    def test_far_ends_cost_nothing(self):
        # every term of an end of 10^20 is dropped, and no such power is taken
        pattern = parse_pattern("1..99999999999999999999")
        for p in (2, 3, 9999991):
            assert deltas((p,), expdens.euler._delta_exponents(pattern)) == [0.0]
            assert local_factor_interval(p, pattern).value == 1.0


class TestDensity:
    def test_squarefree_against_zeta(self):
        est = density(SQUAREFREE, 1e-9)
        assert est.width <= 1e-9
        assert abs(est.value - inverse_zeta(2)) <= 1e-9
        assert est.lower <= inverse_zeta(2) <= est.upper

    def test_all_allowed_is_exact_one(self):
        est = density(PrimeAwarePattern(default=parse_pattern("1..inf")))
        assert est.value == est.lower == est.upper == 1.0

    def test_powerful_diverges_to_zero(self):
        est = density(PrimeAwarePattern(default=parse_pattern("2..inf")))
        assert est.diverges_to_zero
        assert est.value == est.lower == est.upper == 0.0

    def test_empty_default_diverges(self):
        assert density(PrimeAwarePattern(default=EMPTY_PATTERN)).diverges_to_zero

    def test_all_allowed_exceptions_still_exact_one(self):
        pap = PrimeAwarePattern(
            default=parse_pattern("1..inf"),
            exceptions={7: parse_pattern("1..inf")},
        )
        est = density(pap)
        assert est.value == est.lower == est.upper == 1.0

    def test_exceptions_with_free_default_are_exact(self):
        pap = PrimeAwarePattern(
            default=parse_pattern("1..inf"),
            exceptions={2: parse_pattern("1..1"), 3: EMPTY_PATTERN},
        )
        est = density(pap)
        # 3/4 (only exponents 0,1 of 2) times 2/3 (3 must not divide)
        assert est.value == pytest.approx(0.5, rel=1e-14)
        assert est.width <= 1e-14

    def test_range_over_free_default_goes_in_bulk(self, monkeypatch):
        # one quotient call per sieve chunk of the range, none per prime
        calls = []
        inner = expdens.euler._delta_quotients

        def counting(primes, exps):
            calls.append(len(primes))
            return inner(primes, exps)

        monkeypatch.setattr(expdens.euler, "_delta_quotients", counting)
        pap = parse_prime_aware({"default": "1..inf", "exceptions": {"p<=10000": "1..2", "10007": ""}})
        est = density(pap)
        assert [n for n in calls if n] == [1229, 1]
        exact = Fraction(10006, 10007)
        for p in sieve_primes(10**4).primes.tolist():
            exact *= 1 - Fraction(1, p**3)
        assert Fraction(est.lower) <= exact <= Fraction(est.upper)
        assert est.upper <= math.nextafter(est.lower, math.inf)
        assert est.truncation_prime == 10007

    def test_free_default_takes_keys_past_int64(self):
        # the finite product keeps the keys in a list, not an int64 array
        big = 2**64 - 59
        est = density(PrimeAwarePattern(parse_pattern("1..inf"), {big: EMPTY_PATTERN}))
        assert Fraction(est.lower) <= 1 - Fraction(1, big) <= Fraction(est.upper)
        assert est.truncation_prime == big

    def test_far_forbidden_exponent_is_not_exact_one(self):
        # delta(2) = 2^-(10^20) is cut from the quotient, so the factor is
        # enclosed below 1, not returned as an exact 1
        pap = PrimeAwarePattern(parse_pattern("1..inf"), {2: parse_pattern("1..99999999999999999999")})
        est = density(pap)
        assert est.lower < 1.0 == est.upper

    def test_bracket_nesting_under_4x_truncation(self):
        # Beyond P0 every prime enters through the committed tails T_t(1000),
        # so a pinned truncation prime moves no bracket at all.
        for pat in ("1..1", "1..1,3..inf", "1..2,5..inf"):
            pap = PrimeAwarePattern(default=parse_pattern(pat))
            coarse = density(pap, 1e-6)
            P0 = coarse.truncation_prime
            fine = density(pap, 1e-6, truncation_prime=4 * P0)
            finest = density(pap, 1e-6, truncation_prime=16 * P0)
            for est in (fine, finest):
                assert (est.value, est.lower, est.upper) == (
                    coarse.value, coarse.lower, coarse.upper
                )
                assert est.tail_logbound == coarse.tail_logbound

    def test_unreachable_target_carries_best(self):
        # 1e-16 is below one ulp of the density, 2^-53 ~ 1.11e-16 in [0.5, 1),
        # and no bracket is narrower than one ulp
        with pytest.raises(UnreachableTargetError) as exc:
            density(SQUAREFREE, 1e-16)
        best = exc.value.best
        assert isinstance(best, DensityEstimate)
        assert best.truncation_prime == expdens.euler.MIN_TRUNCATION
        assert best.lower <= inverse_zeta(2) <= best.upper

    def test_1e12_met_without_sieving_past_the_start(self, monkeypatch):
        limits = []

        def recording(sieve):
            def wrapped(limit):
                limits.append(limit)
                return sieve(limit)

            return wrapped

        for name in ("prime_segments", "sieve_primes"):
            monkeypatch.setattr(
                expdens.euler, name, recording(getattr(expdens.euler, name))
            )
        est = density(SQUAREFREE, 1e-12)
        assert est.width <= 1e-12
        assert est.lower <= inverse_zeta(2) <= est.upper
        assert est.truncation_prime == expdens.euler.MIN_TRUNCATION
        assert limits and max(limits) <= expdens.euler.MIN_TRUNCATION

    @pytest.mark.parametrize("argv, prime", [
        (["series", "--pattern", "1..1", "--truncation", "1000000"], 1000000),
        (["density", "--pattern", "1..1", "--truncation", "100000"], 100000),
        (["density", "--pattern", "2..inf", "--truncation", "100000"], 100000),
        (["density", "--pattern", "1..inf", "--truncation", "100000"], 100000),
        (["density", "--spec", str(Path(__file__).parent / "data" / "correction_only.json"),
          "--truncation", "100000"], 100000),
        # unpinned: the range's last prime, found without its sieve
        (["density", "--spec", "all_allow_range.json"], 9999991),
    ], ids=[f"argv{i}" for i in range(6)])
    def test_pinned_truncation_sieves_nothing_above_1000(
        self, argv, prime, tmp_path, monkeypatch, capsys
    ):
        from expdens.cli import main

        spec = tmp_path / "all_allow_range.json"
        spec.write_text(json.dumps({"default": "1..inf", "exceptions": {"p<=10000000": "1..inf"}}))
        argv = [str(spec) if arg == spec.name else arg for arg in argv]
        limits = []

        def spy(sieve):
            def wrapped(limit):
                limits.append(limit)
                return sieve(limit)

            return wrapped

        for module in (expdens.euler, expdens.series, expdens.patterns):
            for name in ("prime_segments", "sieve_primes"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, spy(getattr(module, name)))
        assert main(argv) == 0
        assert f"truncation_prime={prime} " in capsys.readouterr().out
        assert max(limits, default=0) <= expdens.euler.MIN_TRUNCATION

    def test_all_allow_range_is_fast(self):
        pap = parse_prime_aware({"default": "1..inf", "exceptions": {"p<=10000000": "1..inf"}})
        start = time.perf_counter()
        est = density(pap)
        assert time.perf_counter() - start < 0.05
        assert est == DensityEstimate(1.0, 1.0, 1.0, 9999991, 0.0)

    @pytest.mark.parametrize("doc", [
        {"default": "1..1", "exceptions": {"p<=10000000": "1..2"}},
        {"default": "1..1", "exceptions": {"p<=10000000": ""}},
        {"default": "1..1", "exceptions": {"104729": "1..inf"}},
    ], ids=["range 1..2", "range empty", "one key"])
    def test_exceptional_primes_sieve_nothing_above_1000(self, doc, monkeypatch):
        # the range's primes come from its own windows; the product sieves only
        # to 1000, and every factor is exact: one or two ulp, even for a range
        # that forbids exponent 1
        pap = parse_prime_aware(doc)
        limits = []

        def spy(sieve):
            def wrapped(limit):
                limits.append(limit)
                return sieve(limit)

            return wrapped

        for name in ("prime_segments", "sieve_primes"):
            monkeypatch.setattr(expdens.euler, name, spy(getattr(expdens.euler, name)))
        est = density(pap)
        assert limits and max(limits) <= expdens.euler.MIN_TRUNCATION
        assert est.upper <= math.nextafter(math.nextafter(est.lower, math.inf), math.inf)

    @pytest.mark.parametrize("default", ["1..inf", "1..1"])
    def test_keys_go_in_bulk_like_a_range(self, default, monkeypatch):
        # the primes to 1e5 as dict keys of one pattern take the calls of the
        # same primes as "p<=100000" and give the same estimate, byte for byte
        primes = sieve_primes(10**5).primes.tolist()
        pattern = parse_pattern("1..2")
        as_range = parse_prime_aware({"default": default, "exceptions": {"p<=100000": "1..2"}})
        as_keys = PrimeAwarePattern(parse_pattern(default), dict.fromkeys(primes, pattern))
        # two equal pattern objects are one distinct pattern
        twins = (pattern, parse_pattern("1..2"))
        as_twins = PrimeAwarePattern(
            parse_pattern(default), {p: twins[i % 2] for i, p in enumerate(primes)}
        )
        calls = []
        inner = expdens.euler._delta_quotients

        def counting(primes, exps):
            calls.append(len(primes))
            return inner(primes, exps)

        monkeypatch.setattr(expdens.euler, "_delta_quotients", counting)
        expected = [len(primes)] if default == "1..inf" else [len(primes)] * 2 + [168]
        estimates = []
        for pap in (as_range, as_keys, as_twins):
            calls.clear()
            estimates.append(density(pap))
            assert calls == expected
        assert repr(estimates[0]) == repr(estimates[1])
        assert estimates[2] == estimates[0]

    def test_range_is_read_window_by_window(self, monkeypatch):
        # a "p<=q" range is never one array: density multiplies its correction
        # a sieve segment at a time, in one pass, and gets the estimate of the
        # same primes as listed keys, byte for byte
        primes = sieve_primes(10**5).primes.tolist()
        pattern = parse_pattern("1..2")
        expected = density(PrimeAwarePattern(SQUAREFREE.default, dict.fromkeys(primes, pattern)))
        sizes = []
        segments = expdens.patterns.prime_segments

        def recording(limit):
            for window in segments(limit):
                sizes.append(len(window))
                yield window

        def refuse(*args):
            raise AssertionError(f"refused call with {args[:1]}")

        monkeypatch.setattr(expdens.primes, "SEGMENT_SIZE", 1 << 12)
        monkeypatch.setattr(expdens.patterns, "prime_segments", recording)
        for module in (expdens.patterns, expdens.euler):
            monkeypatch.setattr(module, "sieve_primes", refuse)
        as_range = parse_prime_aware({"default": "1..1", "exceptions": {"p<=100000": "1..2"}})
        assert repr(density(as_range)) == repr(expected)
        assert sum(sizes) == len(primes) and len(sizes) >= 20
        assert max(sizes) < len(primes) / 10
        # every prime allows everything: the range's pattern is the default's,
        # so no window is read and nothing is multiplied, and its last prime
        # comes from a primality scan down from q
        sizes.clear()
        monkeypatch.setattr(expdens.euler, "_delta_quotients", refuse)
        allow = parse_prime_aware({"default": "1..inf", "exceptions": {"p<=100000": "1..inf"}})
        assert density(allow) == DensityEstimate(1.0, 1.0, 1.0, 99991, 0.0)
        assert sizes == []

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            density(SQUAREFREE, 0.0)

    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, target):
        # NaN once slipped past a "<= 0" test and sieved to the prime budget
        with pytest.raises(ValueError, match="finite"):
            density(SQUAREFREE, target)

    def test_exceptional_prime_bumps_truncation_start(self):
        pap = PrimeAwarePattern(
            default=parse_pattern("1..1"),
            exceptions={104729: parse_pattern("1..inf")},
        )
        est = density(pap, 1e-6)
        assert est.truncation_prime > 104729

    def test_probe_no_wider_than_pairwise_sums(self):
        # the benchmark's bracket probe; 1.4210854715202004e-14 wide when the
        # log-sum was a numpy pairwise sum charged 34 u
        est = density(SQUAREFREE, truncation_prime=10**5)
        assert est.width <= 1.4210854715202004e-14
        assert est.lower <= oracle_density(SQUAREFREE) <= est.upper


class TestFixedPoint:
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(st.floats(0.0, 0.5), st.floats(0.0, 2.0**-20)),
        st.sampled_from(range(256, 641, 64)),
    )
    def test_exp_encloses_the_true_value(self, y, W):
        euler = expdens.euler
        Y = math.floor(Fraction(y) * 2**W)
        m_lo = euler._exp_fixed(Y + (Y != Fraction(y) * 2**W), W, False)
        m_hi = euler._exp_fixed(Y, W, True)
        lower = euler._to_float(m_lo, -W, False)
        upper = euler._to_float(m_hi, -W, True)
        with mpmath.workprec(W + 64):
            truth = mpmath.exp(-mpmath.mpf(y))
            assert mpmath.ldexp(m_lo, -W) <= truth <= mpmath.ldexp(m_hi, -W)
            assert mpmath.mpf(lower) <= truth <= mpmath.mpf(upper)
        assert upper <= math.nextafter(math.nextafter(lower, math.inf), math.inf)

    @pytest.mark.parametrize("W", [256, 640])
    def test_exp_refuses_an_argument_outside_its_range(self, W):
        for Y in (-1, 2 ** (W - 1) + 1):
            for up in (False, True):
                with pytest.raises(ValueError):
                    expdens.euler._exp_fixed(Y, W, up)

    def test_exp_argument_is_below_two_to_the_minus_twelve(self, monkeypatch):
        # every product the engine encloses allows exponent 1, so the tail's
        # log L_0 stays below 1.3e-4 < 2^-12, as _exp_fixed's docstring says
        euler = expdens.euler
        seen = []
        inner = euler._exp_fixed

        def spy(Y, W, up):
            seen.append((Y, W))
            return inner(Y, W, up)

        monkeypatch.setattr(euler, "_exp_fixed", spy)
        for cached in (euler.zeta_int, euler._interval_density):
            cached.cache_clear()
        rng = random.Random(1)
        for _ in range(40):
            density(random_small_pap(rng), truncation_prime=MIN_TRUNCATION)
        for _, kwargs in _CATALOG_ROWS:
            closed_form(**kwargs)
        for w in SWEEP_WEIGHTS.values():
            density_series(w, 8)
        density_series(ExponentWeight.excess(), 198)
        for s in range(2, 301):
            zeta_int(s)
            prime_sum(s)
        assert len(seen) >= 2 * 2 * 299
        for Y, W in seen:
            assert 0 <= Y < 1 << (W - 12), (Y, W)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 1900), st.fractions(0, 1), st.fractions(0, 1))
    def test_fixed_rounds_outward_once(self, n, x, y):
        # a fixed-point interval [lo, hi] 2^-n within [0, 1] becomes its
        # float bracket
        lo, hi = sorted((math.floor(x * 2**n), math.ceil(y * 2**n)))
        value, lower, upper = expdens.euler._round_out(lo, hi, -n)
        assert lower <= value <= upper
        assert Fraction(lower) <= Fraction(lo, 2**n) <= Fraction(hi, 2**n) <= Fraction(upper)
        assert lower == expdens.euler._to_float(lo, -n, False)
        assert upper == expdens.euler._to_float(hi, -n, True)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**600), st.integers(-1300, 100))
    def test_to_float_rounds_outward_once(self, M, e):
        euler = expdens.euler
        exact = Fraction(M) * Fraction(2) ** e
        down, up = euler._to_float(M, e, False), euler._to_float(M, e, True)
        assert Fraction(down) <= exact <= Fraction(up)
        assert up == down or up == math.nextafter(down, math.inf)

    @staticmethod
    def _heads(monkeypatch, compute) -> list[tuple]:
        """(cols, W, K, H, S) of each ``_head_poly`` call that ``compute()`` makes, H whole."""
        heads = []
        inner = expdens.euler._head_poly

        def spy(cols, W, K):
            H, slack = inner(cols, W, K)
            heads.append((cols, W, K, H, slack))
            return H, slack

        with monkeypatch.context() as patch:
            patch.setattr(expdens.euler, "_head_poly", spy)
            compute()
        return heads

    @staticmethod
    def _correction(pap, monkeypatch) -> tuple[int, int]:
        """[c_lo, c_hi], C 2^-128 enclosed, as ``density`` scales the engine's d_0 by it."""
        engine, published = [], []
        inner_engine, inner_publish = expdens.euler._bracketed_product, expdens.euler._publish

        def spy_engine(*args):
            out = inner_engine(*args)
            engine.extend(out)
            return out

        def spy_publish(enclosure, *args):
            published.append(enclosure)
            return inner_publish(enclosure, *args)

        monkeypatch.setattr(expdens.euler, "_bracketed_product", spy_engine)
        monkeypatch.setattr(expdens.euler, "_publish", spy_publish)
        density(pap, 1.0)
        ((pub_lo, pub_hi, pub_e),) = published
        if not engine:
            # the default allows everything: the density is the correction,
            # as published, one unit wider each way once a factor was multiplied
            assert pub_e == -expdens.euler._W
            return pub_lo, pub_hi
        ((lo, hi, e),) = engine
        # the published enclosure is the exact product of the two
        assert pub_e == e - expdens.euler._W
        assert pub_lo % lo == 0 and pub_hi % hi == 0
        return pub_lo // lo, pub_hi // hi

    @staticmethod
    def _head_cases() -> list[PrimeAwarePattern]:
        rng = random.Random(18)
        spec = load_spec(str(Path(__file__).resolve().parents[1] / "perfbench" / "odd_squarefree.json"))
        paps = [spec]
        while len(paps) < 40:
            default = random_pattern(rng)
            keys = rng.sample([2, 3, 5, 7, 97, 991, 997], rng.randint(0, 3))
            exceptions = {q: random_pattern(rng, max_lo=5) if rng.random() < 0.8 else EMPTY_PATTERN
                          for q in keys}
            if contains(default, 1):
                paps.append(PrimeAwarePattern(default=default, exceptions=exceptions))
        return paps

    def test_head_against_exact_product(self, monkeypatch):
        # the head is the default's product alone: 3 units for each prime up
        # to 1000 and one for the dropped terms
        for pap in self._head_cases():
            heads = self._heads(monkeypatch, lambda: density(pap, 1.0))
            assert len(heads) <= 1
            for _, W, _, H, slack in heads:
                exact = exact_head(PrimeAwarePattern(default=pap.default)) * 2**W
                assert H[0] - 1 <= exact <= H[0] + slack, pap
                assert slack <= 3 * 168 + 1
        # a series head, every H_k: the sweep weights, excess among them, at
        # K = 16, each pass of the engine against the exact product of the
        # columns it was given, which are the rows' quotients
        primes = [int(p) for p in sieve_primes(MIN_TRUNCATION).primes]
        for name, w in SWEEP_WEIGHTS.items():
            heads = self._heads(monkeypatch, lambda: density_series(w, 16))
            assert heads, name
            rows = _row_exponents(w, 16)
            for cols, W, K, H, slack in heads:
                assert [tuple(col) for col in cols] == [
                    expdens.euler._delta_quotients(primes, row) for row in rows
                ], name
                for k, exact in enumerate(exact_head_poly(cols, K)):
                    assert H[k] - 1 <= exact * 2**W <= H[k] + slack, (name, W, k)

    @staticmethod
    def _exact_g(L, W) -> list[Fraction]:
        """g_0..g_K of exp(L_0 - L(z)) for L_k = L[k] 2^-W, exactly."""
        s = [Fraction(-l, 1 << W) for l in L]
        g = [Fraction(1)]
        for k in range(1, len(L)):
            g.append(sum(j * s[j] * g[k - j] for j in range(1, k + 1)) / k)
        return g

    def test_g_series_against_exact_values(self):
        # every g_k of _g_series holds the exact g_k at each corner and at
        # random points of its L box: the tails of the sweep weights, and
        # random boxes, some of them single points, where a lower end
        # rounded up would lie above the exact value
        euler = expdens.euler
        rng = random.Random(14)
        boxes = []
        for W in (256, 640):
            for w in SWEEP_WEIGHTS.values():
                b = euler._neglog_coeffs(_row_exponents(w, 5))
                boxes.append(([euler._tail_fixed(row, W) for row in b], W))
            for _ in range(8):
                ends = [rng.randint(-(1 << (W - 8)), 1 << (W - 8)) for _ in range(6)]
                width = rng.choice([0, 1, 1 << 20])
                boxes.append(([(lo, lo + rng.randint(0, width)) for lo in ends], W))
        for L, W in boxes:
            g = euler._g_series(L, W)
            assert len(g) == len(L)
            points = [[L[0][0], *corner] for corner in itertools.product(*L[1:])]
            points += [[rng.randint(lo, hi) for lo, hi in L] for _ in range(4)]
            for point in points:
                for (g_lo, g_hi), exact in zip(g, self._exact_g(point, W)):
                    assert g_lo <= exact * 2**W <= g_hi, (L, W, point)

    def test_assembly_against_exact_ends(self, monkeypatch):
        # each d_k of _product_at holds every value its parts allow, all
        # 2^-W: H_j in [max(H_j - 1, 0), H_j + S], g_j in [g_lo, g_hi] and
        # exp(-L_0) in [e_lo, e_hi], with e_lo taken at L_0's upper end and
        # e_hi at its lower end; the sweep weights at K = 16, every pass
        euler = expdens.euler
        calls = []

        def spy(name):
            inner = getattr(euler, name)

            def wrapped(*args):
                out = inner(*args)
                # a copy: the engine overwrites the d_k it reruns in place
                calls.append((name, args, copy.deepcopy(out)))
                return out

            monkeypatch.setattr(euler, name, wrapped)

        for name in ("_head_poly", "_tail_fixed", "_exp_fixed", "_g_series", "_product_at"):
            spy(name)
        for name, w in SWEEP_WEIGHTS.items():
            calls.clear()
            density_series(w, 16)
            passes = [i for i, call in enumerate(calls) if call[0] == "_product_at"]
            assert passes, name
            for start, end in zip([-1, *passes], passes):
                parts = {}
                for part, args, out in calls[start + 1 : end]:
                    parts.setdefault(part, []).append((args, out))
                ((_, (H, S)),) = parts["_head_poly"]
                L = [out for _, out in parts["_tail_fixed"]]
                ((lo_args, e_lo), (hi_args, e_hi)) = parts["_exp_fixed"]
                (((g_L, W), g),) = parts["_g_series"]
                (_, b, W_pass), (out, slack) = calls[end][1:]
                assert W_pass == W and slack == S and g_L == L and len(L) == len(b), name
                assert lo_args == (L[0][1], W, False), name
                assert hi_args == (max(L[0][0], 0), W, True), name
                unit = Fraction(1, 1 << W)
                for k, (lo, hi, e) in enumerate(out):
                    assert e == -3 * W
                    low = high = 0
                    for h, (g_lo, g_hi) in zip(H[k::-1], g):
                        corners = [a * b * unit**2 for a, b in
                                   itertools.product((max(h - 1, 0), h + S), (g_lo, g_hi))]
                        low, high = low + min(corners), high + max(corners)
                    assert lo * unit**3 <= e_lo * unit * max(low, 0), (name, W, k)
                    assert hi * unit**3 >= e_hi * unit * high, (name, W, k)

    def test_correction_against_exact_product(self, monkeypatch):
        for pap in self._head_cases():
            c_lo, c_hi = self._correction(pap, monkeypatch)
            # every exceptional prime is below 1000
            exact = exact_head(pap) / exact_head(PrimeAwarePattern(default=pap.default))
            assert c_lo <= exact * 2**expdens.euler._W <= c_hi, pap
            # the correction's width for k exceptional primes at 2^-128: the
            # chain's k floors, each scaled by at most zeta(2) < 5/3, the
            # product of the ratios after it, and a correction-only density's
            # unit each way; over a default that forbids an exponent, exactly
            # the ceil(5k/3) that density() states (a key with the default's
            # pattern is no factor)
            k = sum(pattern != pap.default for pattern in pap.exceptions.values())
            assert c_hi - c_lo <= -(-5 * k // 3) + 2
            if min_forbidden(pap.default) is not None:
                assert c_hi - c_lo == -(-5 * k // 3), pap

    @staticmethod
    def _narrow_cases() -> list[tuple[PrimeAwarePattern, bool]]:
        """(pap, engine): correction-only densities, and engine ones with keys below 1000."""
        rng = random.Random(36)
        everything = parse_pattern("1..inf")
        spec = load_spec(str(Path(__file__).parent / "data" / "correction_only.json"))
        # 2^-1101 lies below the quotients' cut, so F(2) is taken as exactly 1
        dropped = PrimeAwarePattern(everything, {2: parse_pattern("1..1100")})
        cases = [(spec, False), (dropped, False)]
        keys = [2, 3, 5, 7, 11, 13, 97, 991, 997]
        while len(cases) < 40:
            engine = len(cases) % 2 == 0
            default = random_pattern(rng) if engine else everything
            primes = rng.sample(keys + [1009, 7919] * (not engine), rng.randint(1, 6))
            exceptions = {q: random_pattern(rng, max_lo=5) if rng.random() < 0.8 else EMPTY_PATTERN
                          for q in primes}
            if contains(default, 1) and (min_forbidden(default) is not None) == engine:
                cases.append((PrimeAwarePattern(default=default, exceptions=exceptions), engine))
        return cases

    @pytest.mark.parametrize("W", [16, 24, 32])
    def test_narrow_correction_holds_the_exact_product(self, W, monkeypatch):
        # at W <= 32 one unit of the correction shows through the float, so
        # a charge dropped from the head product or from the cut quotients
        # moves an end of the published bracket past the exact value
        monkeypatch.setattr(expdens.euler, "_W", W)
        inner = expdens.euler._bracketed_product
        for pap, engine in self._narrow_cases():
            enclosures = []
            monkeypatch.setattr(expdens.euler, "_bracketed_product",
                                lambda *args: enclosures.extend(inner(*args)) or enclosures)
            est = density(pap, 1.0)
            lower, upper = Fraction(est.lower), Fraction(est.upper)
            if not engine:
                assert not enclosures
                assert lower <= exact_head(pap, max(pap.exceptions)) <= upper, pap
                continue
            # the engine encloses the default's product in [lo, hi] 2^e, so the
            # bracket must hold every value of it times the exact correction
            ((lo, hi, e),) = enclosures
            exact = exact_head(pap) / exact_head(PrimeAwarePattern(default=pap.default))
            assert lower <= lo * Fraction(2) ** e * exact, pap
            assert hi * Fraction(2) ** e * exact <= upper, pap

    def test_upper_unit_covers_a_dropped_negative_term(self, monkeypatch):
        # scaled down to W = 16 and a cut at 2^20, where the quotient of F(3)
        # under "2,4,...,18,20..inf" keeps delta's terms to 3^-19 and drops its
        # last, -3^-20: the exact F(3) lies 4.7e-6 units above the head's
        # upper end, so only the correction-only upper unit holds it
        euler = expdens.euler
        monkeypatch.setattr(euler, "_W", 16)
        monkeypatch.setattr(euler, "_CAP_BITS", 20)
        pattern = parse_pattern(",".join(map(str, range(2, 20, 2))) + ",20..inf")
        est = density(PrimeAwarePattern(parse_pattern("1..inf"), {3: pattern}), 1.0)
        exact = 1 - sum(Fraction(1, 3**e) - Fraction(1, 3 ** (e + 1)) for e in range(1, 20, 2))
        assert Fraction(est.lower) <= exact <= Fraction(est.upper)
        assert exact > Fraction(est.upper) - Fraction(1, 2**16)

    def test_degree_zero_calls_no_libm_exp_or_log1p(self, monkeypatch):
        class NoExp:
            def __getattr__(self, name):
                assert name not in ("exp", "expm1", "log1p"), name
                return getattr(math, name)

        monkeypatch.setattr(expdens.euler, "math", NoExp())
        est = density(SQUAREFREE, 1e-12)
        assert est.lower <= oracle_density(SQUAREFREE) <= est.upper
        # the default allows everything: only the exceptional factors, all in
        # the exact head, 1009 too
        finite = PrimeAwarePattern(
            default=parse_pattern("1..inf"),
            exceptions={2: EMPTY_PATTERN, 997: SQUAREFREE.default, 1009: SQUAREFREE.default},
        )
        est = density(finite, 1e-12)
        exact = Fraction(1, 2) * (1 - Fraction(1, 997**2)) * (1 - Fraction(1, 1009**2))
        assert Fraction(est.lower) <= exact <= Fraction(est.upper)
        assert est.upper <= math.nextafter(est.lower, math.inf)
        # exceptional primes above 1000 that the default restricts: their
        # correction is exact too
        far = PrimeAwarePattern(
            default=SQUAREFREE.default,
            exceptions={1009: EMPTY_PATTERN, 104729: parse_pattern("1..inf")},
        )
        est = density(far, 1e-12)
        assert est.lower <= oracle_density(far) <= est.upper


def exact_neglog(delta, K):
    """-log(1 - delta) = sum_j delta^j / j in exact rationals, cut at p^-64 and z^K.

    The powers delta^j are exact int64 shifted adds (every entry stays below
    2^61), independent of the recurrence under test.
    """
    delta = np.array(delta, dtype=np.int64)
    size = delta.shape[0]
    entries = list(zip(*np.nonzero(delta)))
    out = {}
    power, j = delta.copy(), 1
    while power.any():
        for t, k in zip(*np.nonzero(power)):
            out[t, k] = out.get((t, k), 0) + Fraction(int(power[t, k]), j)
        product = np.zeros_like(power)
        for t, k in entries:
            product[t:, k:] += delta[t, k] * power[: size - t, : K + 1 - k]
        power, j = product, j + 1
    return out


NEGLOG_WEIGHTS = {
    "1..1": ExponentWeight.outside_pattern(parse_pattern("1..1")),
    "1..1,3..inf": ExponentWeight.outside_pattern(parse_pattern("1..1,3..inf")),
    "excess": ExponentWeight.excess(),
    "threshold2": ExponentWeight.threshold(2),
    "gaps": ExponentWeight.outside_pattern(parse_pattern("1..1,3..5,9..inf")),
}


def pattern_case(pattern):
    """(exps, weight, K) of a density: the one row ``density`` passes, weight 1 where forbidden."""
    return (expdens.euler._delta_exponents(pattern),), lambda t: not contains(pattern, t), 0


def weight_case(w, K):
    """(exps, weight, K) of a density series, as ``density_series`` passes its rows."""
    return _row_exponents(w, K), w.weight, K


def periodic_case(ell):
    """(exps, weight, K) of ``mod_periodic``: the one row of its pattern, cut at 1100."""
    exps = (expdens.euler._delta_exponents(expdens.euler._periodic_pattern(ell)),)
    return exps, lambda t: (t - 1) % ell != 0, 0


FIXED_NEGLOG_CASES = [
    weight_case(ExponentWeight.excess(), 198),
    weight_case(ExponentWeight.threshold(3), 198),
    *map(periodic_case, range(2, 70)),
]
NEGLOG_CASES = st.one_of(
    st.lists(
        st.tuples(st.integers(1, 70), st.one_of(st.none(), st.integers(0, 20))).map(
            lambda t: (t[0], None if t[1] is None else t[0] + t[1])
        ),
        max_size=6,
    ).map(lambda ivs: pattern_case(normalize_intervals(ivs))),
    st.tuples(st.one_of(small_weights, free_at_one_weights), st.integers(0, 16)).map(
        lambda t: weight_case(*t)
    ),
    st.sampled_from(FIXED_NEGLOG_CASES),
)


def with_examples(cases):
    """Run each of ``cases`` as an explicit Hypothesis example, besides the drawn ones."""
    return lambda test: functools.reduce(lambda t, case: example(case)(t), cases, test)


class TestNeglogCoeffs:
    @pytest.mark.parametrize("K", [0, 8, 16])
    @pytest.mark.parametrize("name", sorted(NEGLOG_WEIGHTS))
    def test_correctly_rounded_against_fractions(self, name, K):
        euler = expdens.euler
        w = NEGLOG_WEIGHTS[name]
        b = euler._neglog_coeffs(_row_exponents(w, K))
        delta = deficiency_reference(w.weight, K)
        exact = exact_neglog(delta, K)
        W = euler._W_FIRST
        cut = -(-(euler._CUT[0] << W) // euler._CUT[1])
        for k in range(K + 1):
            # the coefficients are exact: -b_t / t
            for t in range(len(delta)):
                assert Fraction(-b[k][t], t or 1) == exact.get((t, k), Fraction(0))
            # the tail takes each term at its bounding end of the table,
            # rounded outward once, and the cut
            lo = hi = Fraction(0)
            for t, (t_lo, t_hi) in enumerate(euler._TAIL_1000, start=2):
                c = exact.get((t, k), Fraction(0))
                lo += c * Fraction(t_lo if c > 0 else t_hi)
                hi += c * Fraction(t_hi if c > 0 else t_lo)
            terms = sum(1 for t in range(2, len(delta)) if b[k][t])
            got_lo, got_hi = euler._tail_fixed(b[k], W)
            assert lo * 2**W - terms - cut <= got_lo <= lo * 2**W - cut
            assert hi * 2**W + cut <= got_hi <= hi * 2**W + terms + cut

    @given(
        st.lists(st.integers(0, 20), max_size=8),
        st.sampled_from([0, 1]),
        st.integers(0, 20),
        st.integers(0, 16),
    )
    @settings(max_examples=200, deadline=None)
    def test_sparse_rows_match_the_dense_recurrence(self, values, slope, start, K):
        # the tail's first weight is start
        w = table_weight(values, slope, start - slope * (len(values) + 1))
        delta = deficiency_reference(w.weight, K)
        assert expdens.euler._neglog_coeffs(_row_exponents(w, K)) == dense_neglog_coeffs(delta)

    @given(NEGLOG_CASES)
    @with_examples(FIXED_NEGLOG_CASES)
    @settings(max_examples=200, deadline=None)
    def test_rows_give_the_tail_of_the_weight_reference(self, case):
        # the tail the engine derives from the rows against one built from a
        # weight callable, which the engine never reads
        exps, weight, K = case
        want = dense_neglog_coeffs(deficiency_reference(weight, K))
        assert expdens.euler._neglog_coeffs(exps) == want

    def test_memoized_and_immutable(self):
        exps = _row_exponents(NEGLOG_WEIGHTS["excess"], 8)
        first = expdens.euler._neglog_coeffs(exps)
        assert expdens.euler._neglog_coeffs(tuple(map(tuple, map(list, exps)))) is first
        assert isinstance(first, tuple) and all(isinstance(row, tuple) for row in first)
        with pytest.raises(TypeError):
            first[0][2] = 0


def test_caches_keyed_by_caller_input_are_bounded():
    # a library loop over many patterns, k, ell or s keeps at most 256 of each
    euler = expdens.euler
    sizes = {name: f.cache_info().maxsize for name, f in vars(euler).items()
             if hasattr(f, "cache_info")}
    names = ["_interval_density", "_neglog_coeffs", "_prime_zeta", "zeta_int"]
    assert sizes == dict.fromkeys(names, 256)


class TestClosedForms:
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValueError, match="finite"):
            closed_form("mod_periodic", ell=3, target_error=target)

    def test_powerfree_1_is_squarefree_density(self):
        est = closed_form("powerfree", k=1)
        assert est.value == pytest.approx(float(inverse_zeta(2)), abs=1e-13)

    def test_powerfree_2_is_cubefree_density(self):
        est = closed_form("powerfree", k=2)
        assert est.value == pytest.approx(float(inverse_zeta(3)), abs=1e-13)

    def test_ex2_odd_squarefree(self):
        est = closed_form("ex2", primes={2}, k=2)
        assert est.value == pytest.approx(4.0 / math.pi**2, abs=1e-12)
        assert est.value == pytest.approx(0.4052847346, abs=1e-9)

    def test_exp_odd_value(self):
        est = closed_form("exp_odd", target_error=1e-8)
        # the 40-digit product over p < 1000 times its prime-zeta tail (A065463)
        assert est.value == pytest.approx(float(oracle_mod_periodic(2)), abs=1e-13)
        # and cross-checked against a direct partial product
        p = np.asarray(sieve_primes(2 * 10**6).primes, dtype=np.float64)
        partial = float(np.exp(np.sum(np.log1p(-1.0 / (p * (p + 1.0))))))
        assert est.value <= partial
        assert abs(est.value - partial) <= 1e-7

    def test_mod_periodic_2_matches_exp_odd(self):
        a = closed_form("exp_odd")
        b = closed_form("mod_periodic", ell=2)
        assert abs(a.value - b.value) <= 1e-12
        assert_below_partial(b.value, partial_euler_product(exp_odd_factor))
        c = closed_form("mod_periodic", ell=3)
        assert_below_partial(c.value, partial_euler_product(mod_periodic_factor(3)))

    def test_mod_periodic_1_is_one(self):
        # the all-allow pattern, through density()
        assert closed_form("mod_periodic", ell=1) == DensityEstimate(1.0, 1.0, 1.0, 2, 0.0)

    def test_catalog_consistency_sq_or_high_vs_skip_one(self):
        a = closed_form("squarefree_or_high", k=3)
        b = closed_form("skip_one", k=2)
        assert abs(a.value - b.value) <= 1e-12
        partial = partial_euler_product(gap_factor)
        assert_below_partial(a.value, partial)
        assert_below_partial(b.value, partial)

    def test_squarefree_or_high_2_is_one(self):
        assert closed_form("squarefree_or_high", k=2).value == 1.0

    def test_ex1_reduces_to_half_squarefree(self):
        est = closed_form("ex1", q=3, k=2)
        assert est.value == pytest.approx(float(inverse_zeta(2) / 2), abs=1e-12)

    def test_ex3_single_formula(self):
        est = closed_form("ex3_single", p=2, k=2)
        assert est.value == pytest.approx(float(inverse_zeta(2) * 4 / 3), abs=1e-12)

    def test_ex3_value(self):
        est = closed_form("ex3", k=2)
        # frozen from an independent high-precision evaluation
        assert est.value == pytest.approx(0.9433164094109370, abs=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            closed_form("powerfree", k=0)
        with pytest.raises(ValueError):
            closed_form("ex1", q=4, k=2)
        with pytest.raises(ValueError):
            closed_form("ex2", primes={4}, k=2)
        with pytest.raises(ValueError):
            closed_form("mod_periodic", ell=0)
        with pytest.raises(ValueError):
            closed_form("nope")


class TestGenericVsCatalog:
    """The catalog computes each pattern row by ``density()`` itself, so the
    records are equal, not just overlapping."""

    def test_powerfree_patterns(self):
        for k in (1, 2, 3):
            generic = density(PrimeAwarePattern(default=normalize_intervals([(1, k)])))
            assert closed_form("powerfree", k=k) == generic

    def test_gap_pattern(self):
        generic = density(PrimeAwarePattern(default=parse_pattern("1..1,3..inf")))
        partial = partial_euler_product(gap_factor)
        assert_below_partial(generic.value, partial)
        for name, kwargs in (
            ("squarefree_or_high", dict(k=3)),
            ("skip_one", dict(k=2)),
        ):
            catalog = closed_form(name, **kwargs)
            assert brackets_overlap(generic, catalog)
            assert abs(generic.value - catalog.value) <= 1e-9
            assert_below_partial(catalog.value, partial)

    def test_ex1_pattern(self):
        generic = density(
            PrimeAwarePattern(
                default=parse_pattern("1..1"),
                exceptions={2: EMPTY_PATTERN, 3: EMPTY_PATTERN},
            )
        )
        assert closed_form("ex1", q=3, k=2) == generic
        # the catalog's "p<=q" range, as a spec file gives it
        ranged = parse_prime_aware({"default": "1..2", "exceptions": {"p<=1000": ""}})
        assert closed_form("ex1", q=997, k=3) == density(ranged)

    def test_ex2_pattern(self):
        generic = density(
            PrimeAwarePattern(
                default=parse_pattern("1..1"), exceptions={2: EMPTY_PATTERN}
            )
        )
        assert closed_form("ex2", primes={2}, k=2) == generic
        generic = density(
            PrimeAwarePattern(
                default=parse_pattern("1..2"),
                exceptions={3: EMPTY_PATTERN, 1009: EMPTY_PATTERN},
            )
        )
        assert closed_form("ex2", primes={3, 1009}, k=3) == generic

    def test_ex3_single_pattern(self):
        for p, k in ((2, 2), (3, 2), (1009, 3)):
            generic = density(
                PrimeAwarePattern(
                    default=normalize_intervals([(1, k - 1)]),
                    exceptions={p: parse_pattern("1..inf")},
                )
            )
            assert closed_form("ex3_single", p=p, k=k) == generic

    def test_ex3_is_the_outward_sum_of_d0_and_d1(self):
        # at most one prime with exponent >= k: g(n) <= 1 for the weight 1 on
        # the exponents >= k.  The exact enclosures of d_0 and d_1 are added
        # and rounded outward once, inside the float brackets added outward
        for k in (*range(2, 13), 40):
            ds = density_series(ExponentWeight.threshold(k), 1, MIN_TRUNCATION)
            est = closed_form("ex3", k=k)
            assert est.lower >= math.nextafter(ds.lower[0] + ds.lower[1], -math.inf)
            assert est.upper <= math.nextafter(ds.upper[0] + ds.upper[1], math.inf)
            assert est.upper <= math.nextafter(math.nextafter(est.lower, 2.0), 2.0)
            assert est.upper <= 1.0
            assert est.lower <= est.value <= est.upper
            assert est.truncation_prime == MIN_TRUNCATION
            # narrower than the zeta quotient it replaced (8.33e-15 at k = 2)
            assert est.width < 8.33e-15
            with mpmath.workdps(40):
                truth = (1 + oracle_prime_sum(k)) / mpmath.zeta(k)
                assert est.lower <= truth <= est.upper
