import time

import pytest
from hypothesis import given, settings

import expdens.patterns
from expdens.patterns import (
    EMPTY_PATTERN,
    ExponentInterval,
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
from expdens.primes import sieve_primes
from helpers import in_raw_union, raw_intervals


def ivs(pattern):
    return [(iv.lo, iv.hi) for iv in pattern.intervals]


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
    def test_idempotent(self, raw):
        once = normalize_intervals(raw)
        twice = normalize_intervals([(iv.lo, iv.hi) for iv in once.intervals])
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
            in_forbidden = any(alpha in iv for iv in forb)
            assert contains(pattern, alpha) != in_forbidden


def ivs_of(decomp):
    return [(iv.lo, iv.hi) for iv in decomp.intervals]


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
        # 664 579 keys: one sieve for the expansion and the check, no sort
        limits = []
        sieve = expdens.patterns.sieve_primes

        def recording(limit):
            limits.append(limit)
            return sieve(limit)

        monkeypatch.setattr(expdens.patterns, "sieve_primes", recording)
        start = time.perf_counter()
        pap = parse_prime_aware({"default": "1..1", "exceptions": {"p<=10000000": "1..1"}})
        assert time.perf_counter() - start < 0.5
        assert limits == [10**7]
        assert len(pap.exceptions) == 664579
        assert list(pap.exceptions)[-1] == 9999991

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
                known_primes=sieve_primes(10),
            )


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
        with pytest.raises(ValueError):
            ExponentPattern((ExponentInterval(1, 3), ExponentInterval(4, 5)))

    def test_pattern_ctor_rejects_unbounded_not_last(self):
        with pytest.raises(ValueError):
            ExponentPattern((ExponentInterval(1, None), ExponentInterval(5, 6)))
