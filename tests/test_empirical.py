import functools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdens import empirical, patterns
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
    contains,
    load_spec,
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
    convolve_reference,
    factorize,
    pap_allows,
    primes_upto,
    random_small_pap,
    segment_walk,
    spf_sieve,
    table_weight,
)

SQUAREFREE = PrimeAwarePattern(default=parse_pattern("1..1"))
ALL = PrimeAwarePattern(default=parse_pattern("1..inf"))
POWERFUL = PrimeAwarePattern(default=parse_pattern("2..inf"))


def walk(x, weight, leftover, K=0, exceptional=(), segment=97):
    """Counts by min(g, K + 1) from the segment walk of ``helpers``, over a
    test-side prime list, in segments of 97 integers by default: they start
    off the p^e grid and split every slice."""
    plist = sorted({*primes_upto(math.isqrt(x)).tolist(), *exceptional})
    return segment_walk(x, plist, weight, leftover, K, segment)


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

    def test_segmentation_invariance(self):
        def weight(p, e):
            return int(e > 2)

        full = walk(10**5, weight, 0, segment=1 << 22)
        segmented = walk(10**5, weight, 0, segment=1 << 10)
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

    def test_range_is_sieved_only_as_far_as_it_is_read(self, monkeypatch):
        # a range that treats exponent 1 as the default does is read only to
        # sqrt(x); one that flips exponent 1 is read to x, and only to x
        limits = []
        segments = patterns.prime_segments

        def recording(limit):
            limits.append(limit)  # a generator's body runs on the first read
            yield from segments(limit)

        monkeypatch.setattr(patterns, "prime_segments", recording)
        x = 10**6
        kept = parse_prime_aware({"default": "1..1", "exceptions": {"p<=1000000": "1..2"}})
        # every p with p^2 <= x allows 2, no p^3 divides: the cubefree count
        mu = mobius(100)
        assert count_pattern(x, kept).count == sum(mu[d] * (x // d**3) for d in range(1, 101))
        assert limits and max(limits) <= math.isqrt(x)
        limits.clear()
        flipped = parse_prime_aware({"default": "1..1", "exceptions": {"p<=1000000": ""}})
        assert count_pattern(x, flipped).count == 1
        assert limits == [x]

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

    def test_weighted_exponent_one_refused(self):
        # 1 <= w(1) <= K has no powerful-part sum; the walk of helpers
        # counts it instead (TestPrimePowerWalk)
        for K in range(1, 5):
            for w1 in range(1, K + 1):
                with pytest.raises(ValueError, match=r"w\(1\)"):
                    g_histogram(100, table_weight([w1, 0]), K)
        assert g_histogram(100, table_weight([5, 0]), 4).buckets[0] > 0


class TestPrimePowerWalk:
    """The segment walk of ``helpers``, the differential oracle of
    ``TestAgainstWalk``, against brute force."""

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
    """Every library count enumerates, flipped primes through the quotient
    table; the weights the library refuses go to the walk of ``helpers``."""

    def test_benchmark_requests_enumerate(self):
        x = 10**7
        mu = mobius(216)
        cubefree = sum(mu[d] * (x // d**3) for d in range(1, 216) if d**3 <= x)
        assert count_pattern(x, PrimeAwarePattern(parse_pattern("1..2"))).count == cubefree
        count_pattern(x, PrimeAwarePattern(parse_pattern("1..1,3..inf")))
        spec = {"default": "1..1", "exceptions": {"2": "", "p in [3,5,7]": "1..2"}}
        count_pattern(x, parse_prime_aware(spec))
        gh = g_histogram(x, ExponentWeight.excess(), 8)
        assert gh.buckets[0] == count_pattern(x, SQUAREFREE).count

    def test_few_flipped_primes(self):
        spec = {"default": "1..1", "exceptions": {"2": "", "p in [3,5,7]": "1..2",
                                                  "9973": "", "19997": "2..inf"}}
        pap = parse_prime_aware(spec)
        x = BRUTE_LIMIT
        assert count_pattern(x, pap).count == brute_g_counts(
            x, lambda p, a: int(not pap_allows(pap, p, a)), 0)[0]

    def test_many_flipped_primes(self):
        # every prime to 1e5 forbids exponent 1, on both sides of sqrt(x); no
        # two primes above q fit under x, so the count is 1 + pi(x) - pi(q)
        x, q = 5 * 10**5, 10**5
        pap = parse_prime_aware({"default": "1..1", "exceptions": {f"p<={q}": ""}})
        pi = primes_upto(x)
        assert count_pattern(x, pap).count == 1 + len(pi) - int((pi <= q).sum())

    def test_weighted_exponent_one_walks(self):
        # 1 <= w(1) <= K: f(p) is a power of z other than 1, so h has no
        # powerful support; the histogram refuses it and the walk counts it
        w = table_weight([2, 0, 1], tail_slope=1)
        x, K = 5000, 4
        with pytest.raises(ValueError):
            g_histogram(x, w, K)
        counts = walk(x, lambda p, e: w.weight(e), w.weight(1), K)
        assert counts == brute_g_counts(x, lambda p, a: w.weight(a), K)


# Ranges with q below and above sqrt(x) = 1000, over defaults that allow and
# that forbid exponent 1, with and without single keys past q.
_WALK_SPECS = [
    {"default": "1..1", "exceptions": {"p<=300": ""}},
    {"default": "1..1", "exceptions": {"p<=50000": ""}},
    {"default": "1..1,3..inf", "exceptions": {"p<=100000": "2..4", "999983": "1..inf"}},
    {"default": "1..2", "exceptions": {"p<=2000": "1..inf", "2003": ""}},
    {"default": "2..inf", "exceptions": {"p<=500": "1..inf"}},
    {"default": "2..inf", "exceptions": {"p<=20000": "1..2", "65537": "1", "999983": "1"}},
    {"default": "2,4..5", "exceptions": {"p<=999999": "1,3"}},
    {"default": "", "exceptions": {"p<=1000": "1..inf", "1009": "1"}},
]


class TestAgainstWalk:
    """``count_pattern`` equals the segment walk at x <= 1e6."""

    @pytest.mark.parametrize("doc", _WALK_SPECS)
    @pytest.mark.parametrize("x", [10**6, 123_457])
    def test_count_pattern(self, doc, x):
        pap = parse_prime_aware(doc)
        exceptional = [p for p in pap.exceptions if p <= x]
        counts = walk(x, lambda p, e: int(not pap_allows(pap, p, e)),
                      int(not contains(pap.default, 1)), exceptional=exceptional,
                      segment=1 << 22)
        assert count_pattern(x, pap).count == counts[0]

    @pytest.mark.parametrize("x, q", [(10**6, 1000), (10**6, 4999), (10**6, 10**6),
                                      (10**7, 3163), (10**7, 10**5), (999_999, 997)])
    def test_range_leaves_one_and_the_primes_above_q(self, x, q):
        # no prime above q is at most sqrt(x), so every n > 1 left by
        # "p<=q: ''" over 1..1 is a prime p > q: the count is 1 + pi(x) - pi(q)
        pi = primes_upto(x)
        expected = 1 + len(pi) - int((pi <= q).sum())
        pap = parse_prime_aware({"default": "1..1", "exceptions": {f"p<={q}": ""}})
        assert count_pattern(x, pap).count == expected


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
        # the histogram counts w(1) = 0 and w(1) > K; it refuses the rest
        w1 = data.draw(st.one_of(st.just(0), st.integers(K + 1, K + 9)))
        w = table_weight([w1, *rest], tail_slope, tail_offset)
        gh = g_histogram(x, w, K)
        expected = brute_g_counts(x, lambda p, a: w.weight(a), K)
        assert [*gh.buckets, gh.overflow] == expected


def _rule(data, K):
    """A weight rule with w(1) = 0 or w(1) > K, a table and a linear tail."""
    w1 = data.draw(st.one_of(st.just(0), st.integers(K + 1, K + 9)))
    rest = data.draw(st.lists(st.integers(0, 9), max_size=4))
    w = table_weight([w1, *rest], data.draw(st.integers(0, 1)), data.draw(st.integers(0, 9)))
    return functools.cache(w.weight)


def _primes(data, pool, most):
    return sorted(data.draw(st.lists(st.sampled_from(pool), max_size=most, unique=True))
                  if pool else [])


def _by_reference(call, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(empirical, "_convolve", convolve_reference)
        return call(*args)


SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "odd_squarefree.json"


class TestEnumeration:
    """``_convolve`` batches leaves; ``helpers.convolve_reference`` makes one
    product per child.  ``_tally`` gives the same list with either."""

    @settings(max_examples=100, deadline=None)
    @given(x=st.integers(1, 2 * 10**5), K=st.integers(0, 12), data=st.data())
    def test_matches_reference(self, x, K, data):
        # flipped primes come from the rules: a rule whose w(1) = 0 differs
        # from the default's flips its primes, below or above sqrt(x)
        r = math.isqrt(x)
        pool = primes_upto(x).tolist()
        runs = []
        q = data.draw(st.one_of(st.just(1), st.integers(2, max(r, 2)), st.integers(r, x)))
        if q >= 2:
            runs.append((primes_upto(q).tolist(), _rule(data, K)))
        below = [p for p in pool if q < p <= r]
        above = [p for p in pool if max(q, r) < p]
        singles = _primes(data, below, 3) + _primes(data, above, 3)
        split = data.draw(st.integers(0, len(singles)))
        for run in (singles[:split], singles[split:]):
            if run:
                runs.append((run, _rule(data, K)))
        default = _rule(data, K)
        expected = _by_reference(empirical._tally, x, K, default, runs)
        assert empirical._tally(x, K, default, runs) == expected

    @pytest.mark.parametrize("x, call, arg", [
        (10**7, count_pattern, PrimeAwarePattern(parse_pattern("1..2"))),
        (10**7, count_pattern, PrimeAwarePattern(parse_pattern("1..1,3..inf"))),
        (10**7, count_pattern, load_spec(str(SPEC))),
        (10**7, lambda x, w: g_histogram(x, w, 8), ExponentWeight.excess()),
        (10**8, count_pattern, PrimeAwarePattern(parse_pattern("2..inf"))),
        (10**8, count_pattern, PrimeAwarePattern(parse_pattern("1..1,3..inf"))),
    ], ids=["1..2", "1..1,3..inf", "odd_squarefree", "excess-K8",
            "2..inf-1e8", "1..1,3..inf-1e8"])
    def test_benchmark_calls(self, x, call, arg):
        assert call(x, arg) == _by_reference(call, x, arg)


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
