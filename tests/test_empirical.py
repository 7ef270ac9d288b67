import math
import random

import pytest

import expdens.empirical
from expdens.empirical import (
    compare,
    count_pattern,
    count_periodic,
    g_histogram,
)
from expdens.euler import density
from expdens.patterns import EMPTY_PATTERN, PrimeAwarePattern, parse_pattern
from expdens.primes import DEFAULT_SIEVE_BUDGET, ResourceBudgetError
from expdens.series import ExponentWeight
from helpers import (
    brute_count,
    brute_factorize,
    factorize,
    pap_allows,
    random_small_pap,
    spf_sieve,
    table_weight,
)

SQUAREFREE = PrimeAwarePattern(default=parse_pattern("1..1"))
ALL = PrimeAwarePattern(default=parse_pattern("1..inf"))
POWERFUL = PrimeAwarePattern(default=parse_pattern("2..inf"))


class TestCountPattern:
    def test_squarefree_to_100(self):
        oracle = brute_count(100, lambda p, a: a == 1)
        assert oracle == 61
        rep = count_pattern(100, SQUAREFREE)
        assert rep.count == 61
        assert rep.ratio == 0.61

    def test_everything_counts(self):
        rep = count_pattern(10, ALL)
        assert rep.count == 10

    def test_powerful_to_10(self):
        rep = count_pattern(10, POWERFUL)
        assert rep.count == 4  # 1, 4, 8, 9
        assert rep.count == brute_count(10, lambda p, a: a >= 2)

    def test_x_one(self):
        assert count_pattern(1, POWERFUL).count == 1

    def test_matches_brute_force_with_exceptions(self):
        pap = PrimeAwarePattern(
            default=parse_pattern("1..1"),
            exceptions={2: EMPTY_PATTERN, 5: parse_pattern("1..inf")},
        )
        oracle = brute_count(3000, lambda p, a: pap_allows(pap, p, a))
        assert count_pattern(3000, pap).count == oracle

    def test_exceptional_prime_above_sqrt_x(self):
        # 97 > sqrt(2000): its multiples must be judged by the exception,
        # not by the leftover-residue default path
        for exc in (EMPTY_PATTERN, parse_pattern("1..inf")):
            pap = PrimeAwarePattern(default=parse_pattern("1..1"), exceptions={97: exc})
            oracle = brute_count(2000, lambda p, a: pap_allows(pap, p, a))
            assert count_pattern(2000, pap).count == oracle
        pap = PrimeAwarePattern(
            default=parse_pattern("2..inf"), exceptions={97: parse_pattern("1..inf")}
        )
        oracle = brute_count(2000, lambda p, a: pap_allows(pap, p, a))
        assert count_pattern(2000, pap).count == oracle

    def test_matches_brute_force_random_patterns(self):
        rng = random.Random(424242)
        for _ in range(6):
            pap = random_small_pap(rng)
            oracle = brute_count(2000, lambda p, a: pap_allows(pap, p, a))
            assert count_pattern(2000, pap).count == oracle

    def test_matches_spf_route(self):
        # second independent route: factor every n from the test-side SPF
        # table and apply the membership test directly
        pap = PrimeAwarePattern(
            default=parse_pattern("1..1,3..inf"),
            exceptions={3: parse_pattern("2..4")},
        )
        x = 10**4
        table = spf_sieve(x)
        total = 1  # n = 1
        for n in range(2, x + 1):
            if all(pap_allows(pap, p, a) for p, a in factorize(n, table)):
                total += 1
        assert count_pattern(x, pap).count == total

    def test_segmentation_invariance(self, monkeypatch):
        pap = PrimeAwarePattern(default=parse_pattern("1..2"))
        full = count_pattern(10**5, pap)
        monkeypatch.setattr(expdens.empirical, "SEGMENT_SIZE", 1 << 10)
        segmented = count_pattern(10**5, pap)
        assert full.count == segmented.count

    def test_monotone_in_x(self):
        counts = [count_pattern(x, SQUAREFREE).count for x in range(90, 111)]
        for a, b in zip(counts, counts[1:]):
            assert a <= b <= a + 1

    def test_full_pattern_identity_sampled(self):
        for x in (1, 17, 1000, 44100):
            assert count_pattern(x, ALL).count == x

    def test_squarefree_at_sieve_budget(self):
        x = DEFAULT_SIEVE_BUDGET
        root = math.isqrt(x)
        mu = [1] * (root + 1)
        for p in range(2, root + 1):
            if all(p % q for q in range(2, math.isqrt(p) + 1)):
                for m in range(p, root + 1, p):
                    mu[m] = -mu[m]
                for m in range(p * p, root + 1, p * p):
                    mu[m] = 0
        mobius_sum = sum(mu[d] * (x // (d * d)) for d in range(1, root + 1))
        assert mobius_sum == 60_792_694
        assert count_pattern(x, SQUAREFREE).count == mobius_sum

    def test_budget(self):
        with pytest.raises(ResourceBudgetError):
            count_pattern(10**10, SQUAREFREE)
        with pytest.raises(ValueError):
            count_pattern(0, SQUAREFREE)


class TestCountPeriodic:
    def test_x20_ell2(self):
        # brute-force derived: excluded are 4, 9, 12, 16, 18, 20
        def all_odd(p, a):
            return a % 2 == 1

        assert brute_count(20, all_odd) == 14
        rep = count_periodic(20, 2)
        assert rep.count == 14

    def test_x1(self):
        assert count_periodic(1, 7).count == 1

    def test_ell1_counts_everything(self):
        assert count_periodic(10, 1).count == 10

    def test_matches_brute_force(self):
        for ell in (2, 3, 4):
            oracle = brute_count(5000, lambda p, a: a % ell == 1 % ell)
            assert count_periodic(5000, ell).count == oracle


class TestGHistogram:
    def test_excess_to_10(self):
        gh = g_histogram(10, ExponentWeight.excess(), 3)
        assert gh.buckets == (7, 2, 1, 0)
        assert gh.overflow == 0

    def test_zero_weight(self):
        gh = g_histogram(10, ExponentWeight.zero(), 2)
        assert gh.buckets == (10, 0, 0)

    def test_squarefree_bucket_matches_count(self):
        w = ExponentWeight.outside_pattern(parse_pattern("1..1"))
        gh = g_histogram(100, w, 4)
        assert gh.buckets[0] == 61

    def test_conservation(self):
        w = ExponentWeight.excess()
        for x in (1, 2, 99, 12345):
            gh = g_histogram(x, w, 3)
            assert sum(gh.buckets) + gh.overflow == x

    def test_overflow_collects_high_values(self):
        gh = g_histogram(2**12, ExponentWeight.excess(), 2)
        # 2^11 alone has g = 10 > 2
        assert gh.overflow > 0

    def test_matches_brute_force(self):
        w = table_weight([0, 2], tail_slope=1)
        x, K = 3000, 6
        buckets = [0] * (K + 1)
        overflow = 0
        for n in range(1, x + 1):
            g = sum(w.weight(a) for _, a in brute_factorize(n))
            if g <= K:
                buckets[g] += 1
            else:
                overflow += 1
        gh = g_histogram(x, w, K)
        assert gh.buckets == tuple(buckets)
        assert gh.overflow == overflow


class TestPrimePowerWalk:
    """Segments of 97 integers start off the p^e grid and split every slice."""

    @pytest.fixture(autouse=True)
    def small_segments(self, monkeypatch):
        monkeypatch.setattr(expdens.empirical, "SEGMENT_SIZE", 97)

    def test_leftover_prime_judged_by_default(self):
        # 2..inf forbids exponent 1, so each n with a prime factor above
        # sqrt(x) outside the exceptions is excluded through the leftover path
        for exc in ("1..inf", "1..1", "2..3"):
            pap = PrimeAwarePattern(
                default=parse_pattern("2..inf"), exceptions={97: parse_pattern(exc)}
            )
            oracle = brute_count(2000, lambda p, a: pap_allows(pap, p, a))
            assert count_pattern(2000, pap).count == oracle

    def test_periodic_matches_brute_force(self):
        for ell in (2, 3, 4):
            oracle = brute_count(3000, lambda p, a: a % ell == 1 % ell)
            assert count_periodic(3000, ell).count == oracle

    def test_non_monotone_weight(self):
        # weights fall and rise with the exponent, and exponent 1 is weighted
        w = table_weight([2, 0, 5, 1], tail_offset=3)
        x, K = 3000, 5
        buckets = [0] * (K + 1)
        overflow = 0
        for n in range(1, x + 1):
            g = sum(w.weight(a) for _, a in brute_factorize(n))
            if g <= K:
                buckets[g] += 1
            else:
                overflow += 1
        gh = g_histogram(x, w, K)
        assert gh.buckets == tuple(buckets)
        assert gh.overflow == overflow

    def test_huge_weight_goes_to_overflow(self):
        w = table_weight([0, 10**30])
        x = 1000
        with_square = sum(
            any(a == 2 for _, a in brute_factorize(n)) for n in range(2, x + 1)
        )
        gh = g_histogram(x, w, 3)
        assert gh.overflow == with_square
        assert gh.buckets == (x - with_square, 0, 0, 0)
        # a huge weight on exponent 1 also reaches the leftover prime factors
        powerful = brute_count(x, lambda p, a: a >= 2)
        gh = g_histogram(x, table_weight([10**30]), 3)
        assert gh.buckets == (powerful, 0, 0, 0)
        assert gh.overflow == x - powerful


class TestCompare:
    def test_trivial_full_pattern(self):
        est = density(ALL)
        rep = count_pattern(1000, ALL)
        report = compare(est, rep, 0.0)
        assert report.deviation == 0.0
        assert report.passed

    def test_squarefree_at_1e6(self):
        est = density(SQUAREFREE, 1e-8)
        rep = count_pattern(10**6, SQUAREFREE)
        report = compare(est, rep, 5e-3)
        assert report.passed
        assert abs(report.deviation) < 5e-4

    def test_powerful_against_zero(self):
        est = density(POWERFUL)
        rep = count_pattern(10**6, POWERFUL)
        report = compare(est, rep, 2e-2)
        assert report.passed
        # the ratio decays like x^(-1/2), so it is small but positive
        assert 0.0 < rep.ratio < 3e-3

    def test_failing_tolerance_reported(self):
        est = density(SQUAREFREE, 1e-8)
        rep = count_pattern(100, SQUAREFREE)
        assert not compare(est, rep, 1e-6).passed
