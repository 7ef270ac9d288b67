import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expdens.empirical
from expdens.empirical import (
    compare,
    count_pattern,
    count_periodic,
    g_histogram,
)
from expdens.euler import density
from expdens.patterns import (
    EMPTY_PATTERN,
    PrimeAwarePattern,
    parse_pattern,
    parse_prime_aware,
)
from expdens.primes import DEFAULT_SIEVE_BUDGET, ResourceBudgetError
from expdens.series import ExponentWeight
from helpers import (
    BRUTE_LIMIT,
    brute_count,
    brute_factorize,
    brute_g_counts,
    factorize,
    pap_allows,
    primes_upto,
    random_small_pap,
    spf_sieve,
    table_weight,
)

SQUAREFREE = PrimeAwarePattern(default=parse_pattern("1..1"))
ALL = PrimeAwarePattern(default=parse_pattern("1..inf"))
POWERFUL = PrimeAwarePattern(default=parse_pattern("2..inf"))


def walk(x, weight, leftover, K=0, exceptional=()):
    """Counts by min(g, K + 1) from the fallback walk, over a test-side prime list."""
    plist = sorted({*primes_upto(math.isqrt(x)).tolist(), *exceptional})
    return expdens.empirical._walk(x, plist, weight, leftover, K).tolist()


def mobius(n):
    """mu(0..n) by trial division; mu[0] is unused."""
    mu = [1] * (n + 1)
    for p in range(2, n + 1):
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            for m in range(p, n + 1, p):
                mu[m] = -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


@pytest.fixture
def walks(monkeypatch):
    """Records each call of the fallback walk; the list of its x values."""
    calls = []
    real = expdens.empirical._walk

    def spy(x, *args):
        calls.append(x)
        return real(x, *args)

    monkeypatch.setattr(expdens.empirical, "_walk", spy)
    return calls


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
        def weight(p, e):
            return int(e > 2)

        full = walk(10**5, weight, 0)
        monkeypatch.setattr(expdens.empirical, "SEGMENT_SIZE", 1 << 10)
        segmented = walk(10**5, weight, 0)
        assert full == segmented
        assert full[0] == count_pattern(10**5, PrimeAwarePattern(parse_pattern("1..2"))).count

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
        mu = mobius(root)
        mobius_sum = sum(mu[d] * (x // (d * d)) for d in range(1, root + 1))
        assert mobius_sum == 60_792_694
        assert count_pattern(x, SQUAREFREE).count == mobius_sum

    def test_powerful_at_sieve_budget(self):
        # each powerful n is a^2 b^3 for exactly one squarefree b
        x = DEFAULT_SIEVE_BUDGET
        cubes = [b for b in range(1, 500) if b**3 <= x]
        assert cubes[-1] == 464
        reference = sum(
            math.isqrt(x // b**3) for b in cubes
            if all(b % (d * d) for d in range(2, math.isqrt(b) + 1))
        )
        assert reference == 21_044
        assert count_pattern(x, POWERFUL).count == reference

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
    """The fallback walk, in segments of 97 integers that start off the p^e
    grid and split every slice."""

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
            counts = walk(2000, lambda p, e: int(not pap_allows(pap, p, e)), 1,
                          exceptional=[97])
            assert counts[0] == oracle

    def test_periodic_matches_brute_force(self):
        for ell in (2, 3, 4):
            oracle = brute_count(3000, lambda p, a: a % ell == 1 % ell)
            assert walk(3000, lambda p, e: int((e - 1) % ell != 0), 0)[0] == oracle

    def test_non_monotone_weight(self):
        # weights fall and rise with the exponent, and exponent 1 is weighted
        w = table_weight([2, 0, 5, 1], tail_offset=3)
        x, K = 3000, 5
        counts = walk(x, lambda p, e: w.weight(e), w.weight(1), K)
        assert counts == brute_g_counts(x, lambda p, a: w.weight(a), K)

    def test_huge_weight_goes_to_overflow(self):
        w = table_weight([0, 10**30])
        x = 1000
        with_square = sum(
            any(a == 2 for _, a in brute_factorize(n)) for n in range(2, x + 1)
        )
        assert walk(x, lambda p, e: w.weight(e), 0, 3) == [x - with_square, 0, 0, 0,
                                                           with_square]
        # a huge weight on exponent 1 also reaches the leftover prime factors
        powerful = brute_count(x, lambda p, a: a >= 2)
        w = table_weight([10**30])
        assert walk(x, lambda p, e: w.weight(e), 10**30, 3) == [powerful, 0, 0, 0,
                                                                x - powerful]


class TestRoute:
    """The enumeration serves every input it can bound; the walk the rest."""

    def test_benchmark_requests_enumerate(self, walks):
        x = 10**7
        mu = mobius(216)
        cubefree = sum(mu[d] * (x // d**3) for d in range(1, 216) if d**3 <= x)
        assert count_pattern(x, PrimeAwarePattern(parse_pattern("1..2"))).count == cubefree
        count_pattern(x, PrimeAwarePattern(parse_pattern("1..1,3..inf")))
        spec = {"default": "1..1", "exceptions": {"2": "", "p in [3,5,7]": "1..2"}}
        count_pattern(x, parse_prime_aware(spec))
        gh = g_histogram(x, ExponentWeight.excess(), 8)
        assert gh.buckets[0] == count_pattern(x, SQUAREFREE).count
        assert walks == []

    def test_flipped_primes_within_budget_enumerate(self, walks):
        spec = {"default": "1..1", "exceptions": {"2": "", "p in [3,5,7]": "1..2",
                                                  "9973": "", "19997": "2..inf"}}
        pap = parse_prime_aware(spec)
        x = BRUTE_LIMIT
        assert count_pattern(x, pap).count == brute_g_counts(
            x, lambda p, a: int(not pap_allows(pap, p, a)), 0)[0]
        assert walks == []

    def test_many_flipped_primes_walk(self, walks):
        # every prime to 1e5 forbids exponent 1: the squarefree products of
        # those primes below x put the node bound past the budget
        pap = parse_prime_aware({"default": "1..1", "exceptions": {"p<=100000": ""}})
        x = 5 * 10**5
        assert count_pattern(x, pap).count == brute_g_counts(
            x, lambda p, a: int(not pap_allows(pap, p, a)), 0)[0]
        assert walks == [x]

    def test_weighted_exponent_one_walks(self, walks):
        # 1 <= w(1) <= K: f(p) is a power of z other than 1, so h has no
        # powerful support
        w = table_weight([2, 0, 1], tail_slope=1)
        x, K = 5000, 4
        gh = g_histogram(x, w, K)
        assert [*gh.buckets, gh.overflow] == brute_g_counts(x, lambda p, a: w.weight(a), K)
        assert walks == [x]


_EXAMPLES = settings(max_examples=15, deadline=None)
_BIG_EXCEPTIONS = st.sampled_from([(), (97,), (151, 9973), (19997,)])
_SMALL_PATTERNS = st.sampled_from(["", "1..1", "1..inf", "2..3", "2..inf", "1,3..4"])


class TestAgainstBruteForce:
    """Library counts equal counts over brute factorizations, x <= 2e4."""

    @_EXAMPLES
    @given(seed=st.integers(0, 2**32), x=st.integers(1, BRUTE_LIMIT),
           big=_BIG_EXCEPTIONS, dsl=_SMALL_PATTERNS,
           default=st.sampled_from([None, "", "2..inf", "2,4..5"]))
    def test_count_pattern(self, seed, x, big, dsl, default):
        # the random defaults allow exponent 1; the listed ones forbid it
        base = random_small_pap(random.Random(seed))
        exceptions = dict(base.exceptions)
        exceptions.update(dict.fromkeys(big, parse_pattern(dsl)))
        pap = PrimeAwarePattern(
            default=base.default if default is None else parse_pattern(default),
            exceptions=exceptions,
        )
        expected = brute_g_counts(x, lambda p, a: int(not pap_allows(pap, p, a)), 0)
        assert count_pattern(x, pap).count == expected[0]

    @_EXAMPLES
    @given(x=st.integers(1, BRUTE_LIMIT), ell=st.integers(1, 6))
    def test_count_periodic(self, x, ell):
        expected = brute_g_counts(x, lambda p, a: int((a - 1) % ell != 0), 0)
        assert count_periodic(x, ell).count == expected[0]

    @_EXAMPLES
    @given(x=st.integers(1, BRUTE_LIMIT), K=st.integers(0, 6),
           rest=st.lists(st.integers(0, 9), max_size=4), tail_slope=st.integers(0, 1),
           tail_offset=st.integers(0, 9), data=st.data())
    def test_g_histogram(self, x, K, rest, tail_slope, tail_offset, data):
        # w(1) = 0 and w(1) > K enumerate; 1 <= w(1) <= K walks
        w1 = data.draw(st.one_of(st.just(0), st.integers(1, K + 9)))
        w = table_weight([w1, *rest], tail_slope, tail_offset)
        gh = g_histogram(x, w, K)
        expected = brute_g_counts(x, lambda p, a: w.weight(a), K)
        assert [*gh.buckets, gh.overflow] == expected


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
