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
    local_factor_interval,
    prime_sum,
    zeta_int,
)
from expdens.patterns import (
    EMPTY_PATTERN,
    PrimeAwarePattern,
    complement,
    contains,
    min_forbidden,
    normalize_intervals,
    parse_pattern,
)
from expdens.primes import sieve_primes
from expdens.series import ExponentWeight
from helpers import (
    assert_below_partial,
    exp_odd_factor,
    gap_factor,
    local_factor_general,
    mod_periodic_factor,
    oracle_density,
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


def exact_delta(p, pattern):
    """1 - F(p) in exact rationals, from the forbidden intervals."""
    delta = Fraction(0)
    for iv in complement(pattern).intervals:
        delta += Fraction(1, p**iv.lo)
        if iv.hi is not None:
            delta -= Fraction(1, p ** (iv.hi + 1))
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
        assert expdens.euler._delta(p, exps) == float(truth)
        assert local_factor_interval(p, pattern).value == float(1 - truth)

    @pytest.mark.parametrize("p", [2, 3, 997, 9999991])
    @pytest.mark.parametrize("text", ["1..1,40..60,70..inf", "1..1,600..inf", "1..1,1100..2000",
                                      "1..1097", "1..1,3..3000"])
    def test_dropped_terms_stay_below_the_charged_bound(self, p, text):
        pattern = parse_pattern(text)
        num, den = expdens.euler._delta_quotient(p, expdens.euler._delta_exponents(pattern))
        dropped = abs(Fraction(num, den) - exact_delta(p, pattern))
        assert dropped <= Fraction(1, 2**1100)
        assert den < 2**2200
        # 1e8 primes, each dropping at most 2^-1100 from delta and so at most
        # twice that from log F, fit in the underflow allowance many times over
        assert 10**8 * 2 * 2.0**-1100 <= expdens.euler._UNDERFLOW * 2.0**-40

    def test_far_ends_cost_nothing(self):
        # every term of an end of 10^20 is dropped, and no such power is taken
        pattern = parse_pattern("1..99999999999999999999")
        for p in (2, 3, 9999991):
            assert expdens.euler._delta(p, expdens.euler._delta_exponents(pattern)) == 0.0
            assert local_factor_interval(p, pattern).value == 1.0

    def test_log1p_within_its_charge(self):
        # the 2 ulp charged to log1p, against 40 digits on sampled deltas
        rng = random.Random(7)
        with mpmath.workdps(40):
            for _ in range(2000):
                d = rng.uniform(0.0, 0.5) * 2.0 ** -rng.randrange(0, 60)
                exact = mpmath.log1p(-mpmath.mpf(d))
                err = abs(mpmath.mpf(math.log1p(-d)) - exact)
                assert err <= 4 * expdens.euler._U * abs(exact)


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
        # Beyond P0 the proven width is nearly flat in P: the log-sum
        # roundoff grows with |log| while the prime-zeta error bars stay.  With
        # t = 5 in the tail (needed up to P = 5.8e3) 16 P0 is strictly
        # narrower; the odd-t coefficients of 1..1 vanish, and only t = 6,
        # about a third of an ulp of the bound, separates P0 from 4 P0.
        for pat in ("1..1", "1..1,3..inf", "1..2,5..inf"):
            pap = PrimeAwarePattern(default=parse_pattern(pat))
            coarse = density(pap, 1e-6)
            P0 = coarse.truncation_prime
            fine = density(pap, 1e-6, truncation_prime=4 * P0)
            finest = density(pap, 1e-6, truncation_prime=16 * P0)
            assert coarse.lower <= fine.value <= coarse.upper
            assert coarse.lower <= finest.value <= coarse.upper
            assert finest.width <= fine.width <= coarse.width
            if pat != "1..1":
                assert finest.width < coarse.width

    def test_unreachable_target_carries_best(self):
        # 1e-16 is below the roundoff floor of the enclosure (about 3.8e-15)
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

    def test_probe_no_wider_than_pairwise_sums(self):
        # the benchmark's bracket probe; 1.4210854715202004e-14 wide when the
        # log-sum was a numpy pairwise sum charged 34 u
        est = density(SQUAREFREE, truncation_prime=10**5)
        assert est.width <= 1.4210854715202004e-14
        assert est.lower <= oracle_density(SQUAREFREE) <= est.upper


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
    "1..1": lambda t: not contains(parse_pattern("1..1"), t),
    "1..1,3..inf": lambda t: not contains(parse_pattern("1..1,3..inf"), t),
    "excess": ExponentWeight.excess().weight,
    "threshold2": ExponentWeight.threshold(2).weight,
    "gaps": ExponentWeight.outside_pattern(parse_pattern("1..1,3..5,9..inf")).weight,
}


class TestNeglogCoeffs:
    @pytest.mark.parametrize("K", [0, 8, 16])
    @pytest.mark.parametrize("name", sorted(NEGLOG_WEIGHTS))
    def test_correctly_rounded_against_fractions(self, name, K):
        delta = expdens.euler._deficiency(NEGLOG_WEIGHTS[name], K)
        neglog, err = expdens.euler._neglog_coeffs(delta)
        exact = exact_neglog(delta, K)
        for k in range(K + 1):
            for t in range(len(delta)):
                truth = exact.get((t, k), Fraction(0))
                # one correctly rounded division per coefficient
                assert neglog[k][t] == float(truth)
                assert abs(Fraction(neglog[k][t]) - truth) <= Fraction(err[k][t])
                assert err[k][t] == expdens.euler._U * abs(neglog[k][t])


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
