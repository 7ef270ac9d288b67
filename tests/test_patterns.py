import random
import time

import pytest
from hypothesis import given, settings

import expdens.patterns
from expdens.patterns import (
    EMPTY_PATTERN,
    ExponentPattern,
    PatternSyntaxError,
    PrimeAwarePattern,
    complement,
    contains,
    min_forbidden,
    normalize_intervals,
    parse_pattern,
    parse_prime_aware,
    pattern_for_prime,
)
from expdens.primes import ResourceBudgetError, sieve_primes
from helpers import in_raw_union, random_small_pap, raw_intervals


def ivs(pattern):
    return list(pattern.intervals)


def flat(windows):
    return [p for window in windows for p in window]


def spy_segments(monkeypatch):
    """The limits of the ``prime_segments`` windows patterns hands out, each
    recorded when its first window is read."""
    limits = []
    segments = expdens.patterns.prime_segments

    def recording(limit):
        limits.append(limit)  # a generator's body runs on the first read
        yield from segments(limit)

    monkeypatch.setattr(expdens.patterns, "prime_segments", recording)
    return limits


class TestNormalize:
    def test_already_normal(self):
        assert ivs(normalize_intervals([(1, 1), (3, None)])) == [(1, 1), (3, None)]

    def test_sort_then_adjacent_merge(self):
        assert ivs(normalize_intervals([(3, 5), (1, 2)])) == [(1, 5)]

    def test_overlap_merge(self):
        assert ivs(normalize_intervals([(2, 4), (3, 7)])) == [(2, 7)]

    def test_unbounded_absorbs(self):
        assert ivs(normalize_intervals([(2, None), (5, 9), (3, 4)])) == [(2, None)]

    def test_rejects_zero_lo(self):
        with pytest.raises(ValueError):
            normalize_intervals([(0, 2)])

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            normalize_intervals([(4, 2)])

    @given(raw_intervals)
    @settings(max_examples=200)
    def test_membership_round_trip(self, raw):
        pattern = normalize_intervals(raw)
        for alpha in range(1, 201):
            assert contains(pattern, alpha) == in_raw_union(raw, alpha)

    @given(raw_intervals)
    @settings(max_examples=200)
    def test_str_round_trip(self, raw):
        pattern = normalize_intervals(raw)
        assert parse_pattern(str(pattern)) == pattern

    @given(raw_intervals)
    @settings(max_examples=200)
    def test_idempotent(self, raw):
        once = normalize_intervals(raw)
        twice = normalize_intervals(once.intervals)
        assert once == twice


class TestContains:
    def test_gap(self):
        assert not contains(parse_pattern("1..1,3..inf"), 2)

    def test_unbounded_tail(self):
        assert contains(parse_pattern("1..1,3..inf"), 100)

    def test_empty(self):
        assert not contains(EMPTY_PATTERN, 1)

    def test_rejects_alpha_zero(self):
        with pytest.raises(ValueError):
            contains(EMPTY_PATTERN, 0)


class TestMinForbidden:
    def test_gap_pattern(self):
        assert min_forbidden(parse_pattern("1..1,3..inf")) == 2

    def test_all_allowed(self):
        assert min_forbidden(parse_pattern("1..inf")) is None

    def test_missing_one(self):
        assert min_forbidden(parse_pattern("2..inf")) == 1

    @given(raw_intervals)
    @settings(max_examples=200)
    def test_matches_linear_scan(self, raw):
        pattern = normalize_intervals(raw)
        scan = next((a for a in range(1, 201) if not contains(pattern, a)), None)
        got = min_forbidden(pattern)
        if scan is None:
            # every alpha <= 200 allowed: only possible for an unbounded run from 1
            assert got is None or got > 200
        else:
            assert got == scan


class TestComplement:
    def test_single_gap(self):
        assert ivs_of(complement(parse_pattern("1..1,3..inf"))) == [(2, 2)]

    def test_bounded_prefix(self):
        assert ivs_of(complement(parse_pattern("1..2"))) == [(3, None)]

    def test_empty_pattern(self):
        assert ivs_of(complement(EMPTY_PATTERN)) == [(1, None)]

    @given(raw_intervals)
    @settings(max_examples=200)
    def test_exact_partition(self, raw):
        pattern = normalize_intervals(raw)
        forb = complement(pattern).intervals
        for alpha in range(1, 201):
            in_forbidden = any(lo <= alpha and (hi is None or alpha <= hi) for lo, hi in forb)
            assert contains(pattern, alpha) != in_forbidden


def ivs_of(decomp):
    return list(decomp.intervals)


class TestParse:
    def test_basic(self):
        assert ivs(parse_pattern("1..1,3..inf")) == [(1, 1), (3, None)]

    def test_singletons(self):
        assert ivs(parse_pattern("1,3,5,7..inf")) == [(1, 1), (3, 3), (5, 5), (7, None)]

    def test_zero_exponent_rejected(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("0..2")

    def test_malformed_carries_position(self):
        with pytest.raises(PatternSyntaxError) as exc:
            parse_pattern("1..1, x..2")
        assert exc.value.position == 6

    def test_reversed_interval(self):
        with pytest.raises(PatternSyntaxError):
            parse_pattern("5..3")

    def test_empty_string_is_empty_pattern(self):
        assert parse_pattern("  ") == EMPTY_PATTERN

    def test_whitespace_tolerated(self):
        assert parse_pattern(" 1..2 , 4 ") == normalize_intervals([(1, 2), (4, 4)])


class TestLongIntegers:
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    def test_long_term_is_a_syntax_error_at_its_position(self):
        with pytest.raises(PatternSyntaxError, match="more than 4300 digits") as exc:
            parse_pattern("1, 2.." + "9" * 5000)
        assert exc.value.position == 3

    @pytest.mark.parametrize("key", ["9" * 5000, "p<=" + "9" * 5000, "p in [3, " + "9" * 5000 + "]"],
                             ids=["prime", "range", "list"])
    def test_long_key_is_refused_by_name(self, key):
        with pytest.raises(ValueError, match="more than 4300 digits") as exc:
            parse_prime_aware({"default": "1", "exceptions": {key: ""}})
        assert str(exc.value).startswith(f"exception key {key[:20]!r}")


class TestPrimeAware:
    def test_exception_hit(self):
        pap = PrimeAwarePattern(
            default=parse_pattern("1..1"), exceptions={2: EMPTY_PATTERN}
        )
        assert pattern_for_prime(pap, 2) == EMPTY_PATTERN

    def test_exception_miss(self):
        pap = PrimeAwarePattern(
            default=parse_pattern("1..1"), exceptions={2: EMPTY_PATTERN}
        )
        assert pattern_for_prime(pap, 5) == parse_pattern("1..1")

    def test_no_exceptions(self):
        pap = PrimeAwarePattern(default=parse_pattern("1..3"))
        assert pattern_for_prime(pap, 97) == parse_pattern("1..3")

    def test_nonprime_key_rejected(self):
        with pytest.raises(ValueError):
            PrimeAwarePattern(default=EMPTY_PATTERN, exceptions={4: EMPTY_PATTERN})

    def test_large_keys_checked_beyond_the_sieve(self):
        big = 10**18 + 3
        pap = PrimeAwarePattern(default=EMPTY_PATTERN, exceptions={big: EMPTY_PATTERN})
        assert pattern_for_prime(pap, big) == EMPTY_PATTERN
        # a key beyond 64 bits stays an exact int
        huge = 10**19 + 51
        pap = PrimeAwarePattern(default=EMPTY_PATTERN, exceptions={2: EMPTY_PATTERN, huge: EMPTY_PATTERN})
        assert list(pap.exceptions) == [2, huge]
        with pytest.raises(ValueError):
            PrimeAwarePattern(
                default=EMPTY_PATTERN, exceptions={2: EMPTY_PATTERN, big - 2: EMPTY_PATTERN}
            )

    def test_many_keys_parse_fast(self):
        # 78 498 keys from one sieve, not one primality test per key
        start = time.perf_counter()
        pap = parse_prime_aware({"default": "1..1", "exceptions": {"p<=1000000": "1..1"}})
        assert time.perf_counter() - start < 0.5
        assert len(pap.exceptions) == 78498

    def test_range_key_to_1e7_parses_in_one_sieve(self, monkeypatch):
        # 664 579 keys: the parse sieves nothing; len and iteration each walk
        # one segmented sieve to q, no sort, and the range keeps no prime
        limits = spy_segments(monkeypatch)
        start = time.perf_counter()
        pap = parse_prime_aware({"default": "1..1", "exceptions": {"p<=10000000": "1..1"}})
        assert limits == []
        assert len(pap.exceptions) == 664579
        assert time.perf_counter() - start < 0.5
        assert limits == [10**7]
        assert max(pap.exceptions) == 9999991
        assert limits == [10**7, 10**7]
        assert vars(pap.exceptions).keys() == {"q", "pattern", "rest"}

    def test_range_is_sieved_only_as_far_as_asked(self, monkeypatch):
        limits = spy_segments(monkeypatch)
        pap = parse_prime_aware({"default": "1..1", "exceptions": {"p<=100000000": ""}})
        assert flat(pap.exceptions.windows(100)) == sieve_primes(100).primes.tolist()
        assert flat(pap.exceptions.windows(1)) == []
        assert limits == [100, 1]
        # a lookup is one primality test: 99 999 989 is the range's last prime
        assert pap.exceptions[99999989] == EMPTY_PATTERN
        assert 99999999 not in pap.exceptions and 2 in pap.exceptions
        assert limits == [100, 1]
        with pytest.raises(ResourceBudgetError):
            parse_prime_aware({"default": "1..1", "exceptions": {"p<=100000001": ""}})
        small = parse_prime_aware({"default": "1..1", "exceptions": {"p<=100": ""}})
        assert flat(small.exceptions.windows(10**6)) == sieve_primes(100).primes.tolist()
        assert flat(small.exceptions.windows(50)) == sieve_primes(50).primes.tolist()
        assert limits == [100, 1, 100, 50]

    def test_non_integer_key_rejected(self):
        for key in (7.0, "7"):
            with pytest.raises(ValueError, match="not an integer"):
                PrimeAwarePattern(default=EMPTY_PATTERN, exceptions={key: EMPTY_PATTERN})

    def test_nonprime_keys_rejected_beside_a_range_key(self):
        with pytest.raises(ValueError, match="not prime"):
            parse_prime_aware({"default": "1..1", "exceptions": {"p<=100": "", "91": "1..1"}})
        with pytest.raises(ValueError, match="not prime"):
            PrimeAwarePattern(
                default=EMPTY_PATTERN,
                exceptions={7: EMPTY_PATTERN, 9: EMPTY_PATTERN},
            )


RANGE_DOCS = [
    {"default": "1..1", "exceptions": {"p<=100": "1..2", "101": "", "103": "1..2",
                                       "p in [107, 109]": "", "10000019": "1..2"}},
    {"default": "1..2", "exceptions": {"p<=2": "", "3": "1..inf"}},
    {"default": "1..1", "exceptions": {"p<=1000": "1..2"}},
]


def check_runs(pap, ranged=False):
    """runs() against the exceptions: non-empty ascending windows, disjoint,
    covering, one run per pattern."""
    runs = [([list(window) for window in windows], pattern) for windows, pattern in pap.runs()]
    keys = [p for windows, _ in runs for p in flat(windows)]
    assert sorted(keys) == list(pap.exceptions)
    assert list(reversed(pap.exceptions)) == sorted(keys, reverse=True)
    assert len(set(keys)) == len(keys)
    for windows, pattern in runs:
        primes = flat(windows)
        assert windows and all(windows) and primes == sorted(primes)
        assert all(pattern_for_prime(pap, p) == pattern for p in primes)
    # a "p<=q" range is its own run, its windows the sieve's segments, ahead
    # of one run, a single window, per distinct pattern of the other keys
    rest = [pattern for _, pattern in runs[ranged:]]
    assert len(set(rest)) == len(rest)
    assert all(len(windows) == 1 for windows, _ in runs[ranged:])
    if not ranged:
        assert len(runs) == len(set(pap.exceptions.values()))


class TestRuns:
    def test_random_patterns(self):
        rng = random.Random(20)
        for _ in range(300):
            pap = random_small_pap(rng)
            check_runs(pap)

    @pytest.mark.parametrize("doc", RANGE_DOCS)
    def test_range_specs(self, doc):
        check_runs(parse_prime_aware(doc), ranged=True)

    def test_runs_sieve_no_further_than_asked(self, monkeypatch):
        limits = spy_segments(monkeypatch)
        doc = {"default": "1..1", "exceptions": {"p<=100000000": "", "100000007": "1"}}
        (windows, pattern), far = parse_prime_aware(doc).runs(1000)
        assert pattern == EMPTY_PATTERN
        assert far == ([[100000007]], parse_pattern("1"))
        assert limits == []  # the range's windows are sieved as they are read
        assert flat(windows) == sieve_primes(1000).primes.tolist()
        assert limits == [1000]

    def test_listed_primes_are_checked_by_one_sieve(self, monkeypatch):
        # 78 498 listed keys: no Miller-Rabin test for any key below 1e7
        tested = []
        is_prime = expdens.patterns.is_prime

        def spy(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(expdens.patterns, "is_prime", spy)
        listed = sieve_primes(10**6).primes.tolist()
        key = f"p in [{', '.join(map(str, listed))}]"
        pap = parse_prime_aware({"default": "1..1", "exceptions": {key: "1..2", "10000019": ""}})
        assert len(pap.exceptions) == 78499
        assert tested == [10000019]
        with pytest.raises(ValueError, match="exception key 4 is not prime"):
            parse_prime_aware({"default": "1..1", "exceptions": {"p in [3, 4]": ""}})


class TestSpecDocument:
    def test_plain_keys(self):
        pap = parse_prime_aware(
            {"default": "1..1", "exceptions": {"2": "", "5": "1..inf"}}
        )
        assert set(pap.exceptions) == {2, 5}
        assert pap.exceptions[2] == EMPTY_PATTERN

    def test_prime_class_upper_bound(self):
        pap = parse_prime_aware({"default": "1..2", "exceptions": {"p<=7": ""}})
        assert set(pap.exceptions) == {2, 3, 5, 7}

    def test_range_key_acts_as_its_dict(self):
        doc = {"default": "1..1", "exceptions": {"101": "", "p<=100": "1..2", "103": "2"}}
        pap = parse_prime_aware(doc)
        expected = {p: parse_pattern("1..2") for p in sieve_primes(100).primes.tolist()}
        expected.update({101: EMPTY_PATTERN, 103: parse_pattern("2")})
        assert pap.exceptions == expected
        assert list(pap.exceptions) == sorted(expected)
        assert list(pap.exceptions.items()) == sorted(expected.items())
        assert len(pap.exceptions) == len(expected)
        assert 97 in pap.exceptions and 99 not in pap.exceptions
        assert pattern_for_prime(pap, 97) == parse_pattern("1..2")
        assert pattern_for_prime(pap, 103) == parse_pattern("2")
        assert pattern_for_prime(pap, 107) == pap.default
        assert pap == PrimeAwarePattern(default=pap.default, exceptions=expected)

    def test_prime_class_explicit_set(self):
        pap = parse_prime_aware({"default": "1..2", "exceptions": {"p in [3, 11]": "2..2"}})
        assert set(pap.exceptions) == {3, 11}

    def test_duplicate_prime_rejected(self):
        with pytest.raises(ValueError):
            parse_prime_aware(
                {"default": "1..1", "exceptions": {"p<=3": "", "3": "1..1"}}
            )

    def test_nonprime_member_rejected(self):
        with pytest.raises(ValueError):
            parse_prime_aware({"default": "1..1", "exceptions": {"p in [6]": ""}})

    def test_missing_default_rejected(self):
        with pytest.raises(ValueError):
            parse_prime_aware({"exceptions": {}})


class TestInvariantEnforcement:
    def test_pattern_ctor_rejects_overlap(self):
        # [1, 3] and [4, 5] touch: the end 4 appears twice
        with pytest.raises(ValueError, match="ascend strictly from 1 up"):
            ExponentPattern((1, 4, 4, 6))

    def test_pattern_ctor_rejects_descending_ends(self):
        with pytest.raises(ValueError, match="ascend strictly from 1 up"):
            ExponentPattern((1, 5, 3))

    def test_pattern_ctor_rejects_an_end_below_one(self):
        with pytest.raises(ValueError, match="ascend strictly from 1 up"):
            ExponentPattern((0, 2))

    def test_intervals_view_follows_the_ends(self):
        pattern = ExponentPattern((1, 2, 3))
        assert pattern.intervals == ((1, 1), (3, None))
        assert str(pattern) == "1,3..inf"
        assert ExponentPattern((2, 5)).intervals == ((2, 4),)
        assert EMPTY_PATTERN.intervals == () and str(EMPTY_PATTERN) == ""
        assert hash(pattern) == hash(parse_pattern("1,3..inf")) and pattern == parse_pattern("1,3..inf")
