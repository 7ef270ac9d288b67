import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special

import expdens.euler
from expdens.euler import (
    DensityEstimate,
    UnreachableTargetError,
    brackets_overlap,
    closed_form,
    density,
    local_factor_general,
    local_factor_interval,
    prime_sum,
    zeta_int,
)
from expdens.patterns import (
    EMPTY_PATTERN,
    PrimeAwarePattern,
    contains,
    min_forbidden,
    normalize_intervals,
    parse_pattern,
)
from expdens.primes import sieve_primes
from helpers import (
    assert_below_partial,
    exp_odd_factor,
    gap_factor,
    mod_periodic_factor,
    oracle_mod_periodic,
    partial_euler_product,
    random_pattern,
)

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

    def test_bernoulli_table(self):
        for k, b in enumerate(expdens.euler._BERNOULLI, start=1):
            assert (b.numerator, b.denominator) == mpmath.bernfrac(2 * k)

    def test_error_bars_hold_against_mpmath(self):
        with mpmath.workdps(40):
            for s in range(2, 65):
                z = zeta_int(s)
                assert abs(mpmath.mpf(z.value) - mpmath.zeta(s)) <= z.error
                assert z.error <= 2.5e-16 * z.value

    def test_prime_zeta_error_bars_hold_against_mpmath(self):
        with mpmath.workdps(40):
            for s in range(2, 65):
                pz = expdens.euler._prime_zeta(s)
                assert abs(mpmath.mpf(pz.value) - mpmath.primezeta(s)) <= pz.error
                assert pz.error <= 2e-15


class TestPrimeSum:
    def test_first_three_terms_are_half(self):
        assert Fraction(1, 3) + Fraction(1, 8) + Fraction(1, 24) == Fraction(1, 2)

    def test_k2_against_direct_summation(self):
        p = sieve_primes(10**7).primes.astype(np.float64)
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
                assert (v == 1.0) == pattern.allows_everything()

    def test_monotone_under_pattern_inclusion(self):
        rng = random.Random(99)
        for _ in range(100):
            big = random_pattern(rng)
            if not big.intervals:
                continue
            # shrink: drop one interval, or clip the first one
            ivs = [(iv.lo, iv.hi) for iv in big.intervals]
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


class TestDensity:
    def test_squarefree_against_zeta(self):
        est = density(SQUAREFREE, 1e-9)
        assert est.width <= 1e-9
        assert abs(est.value - 1.0 / zeta_int(2).value) <= 1e-9
        assert est.lower <= 1.0 / zeta_int(2).value <= est.upper

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

    def test_bracket_nesting_under_4x_truncation(self):
        for pat in ("1..1", "1..1,3..inf", "1..2,5..inf"):
            pap = PrimeAwarePattern(default=parse_pattern(pat))
            coarse = density(pap, 1e-6)
            fine = density(
                pap, 1e-6, truncation_prime=4 * coarse.truncation_prime
            )
            assert coarse.lower <= fine.value <= coarse.upper
            assert fine.width < coarse.width

    def test_unreachable_target_carries_best(self):
        # 1e-16 is below the roundoff floor of the enclosure (about 1.5e-14)
        with pytest.raises(UnreachableTargetError) as exc:
            density(SQUAREFREE, 1e-16)
        best = exc.value.best
        assert isinstance(best, DensityEstimate)
        assert best.truncation_prime == expdens.euler.MIN_TRUNCATION
        assert best.lower <= 1.0 / zeta_int(2).value <= best.upper

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
        assert est.lower <= 1.0 / zeta_int(2).value <= est.upper
        assert est.truncation_prime == expdens.euler.MIN_TRUNCATION
        assert limits and max(limits) <= expdens.euler.MIN_TRUNCATION

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


class TestClosedForms:
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValueError, match="finite"):
            closed_form("mod_periodic", ell=3, target_error=target)

    def test_powerfree_1_is_squarefree_density(self):
        est = closed_form("powerfree", k=1)
        assert est.value == pytest.approx(1.0 / zeta_int(2).value, abs=1e-13)

    def test_powerfree_2_is_cubefree_density(self):
        est = closed_form("powerfree", k=2)
        assert est.value == pytest.approx(1.0 / zeta_int(3).value, abs=1e-13)

    def test_ex2_odd_squarefree(self):
        est = closed_form("ex2", primes={2}, k=2)
        assert est.value == pytest.approx(4.0 / math.pi**2, abs=1e-12)
        assert est.value == pytest.approx(0.4052847346, abs=1e-9)

    def test_exp_odd_value(self):
        est = closed_form("exp_odd", target_error=1e-8)
        # the 40-digit product over p < 1000 times its prime-zeta tail (A065463)
        assert est.value == pytest.approx(float(oracle_mod_periodic(2)), abs=1e-13)
        # and cross-checked against a direct partial product
        p = sieve_primes(2 * 10**6).primes.astype(np.float64)
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
        assert closed_form("mod_periodic", ell=1).value == 1.0

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
        assert est.value == pytest.approx(0.5 / zeta_int(2).value, abs=1e-12)

    def test_ex3_single_formula(self):
        est = closed_form("ex3_single", p=2, k=2)
        assert est.value == pytest.approx(
            (4.0 / 3.0) / zeta_int(2).value, abs=1e-12
        )

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
    def test_powerfree_patterns(self):
        for k in (1, 2, 3):
            generic = density(PrimeAwarePattern(default=normalize_intervals([(1, k)])))
            catalog = closed_form("powerfree", k=k)
            assert brackets_overlap(generic, catalog)
            assert abs(generic.value - catalog.value) <= 1e-9

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
        catalog = closed_form("ex1", q=3, k=2)
        assert brackets_overlap(generic, catalog)
        assert abs(generic.value - catalog.value) <= 1e-9

    def test_ex2_pattern(self):
        generic = density(
            PrimeAwarePattern(
                default=parse_pattern("1..1"), exceptions={2: EMPTY_PATTERN}
            )
        )
        catalog = closed_form("ex2", primes={2}, k=2)
        assert brackets_overlap(generic, catalog)
        assert abs(generic.value - catalog.value) <= 1e-9
