import math
import random
import time
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expdens.primes
from expdens.primes import (
    ResourceBudgetError,
    _odd_flags,
    is_prime,
    prime_segments,
    sieve_primes,
)
from helpers import brute_factorize, factorize, spf_sieve


def reference_primes(limit):
    """Independent odd-only bytearray sieve."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return [n for n in range(2, limit + 1) if flags[n]]


def strong_probable_prime(n, b):
    """Whether odd n passes the Miller-Rabin round to base b."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    y = pow(b, d, n)
    return y in (1, n - 1) or any(pow(y, 2**r, n) == n - 1 for r in range(1, s))


class TestSievePrimes:
    def test_small(self):
        assert sieve_primes(10).primes.tolist() == [2, 3, 5, 7]

    def test_limit_two(self):
        assert sieve_primes(2).primes.tolist() == [2]

    def test_thirty(self):
        assert sieve_primes(30).primes.tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_agrees_with_trial_division_to_1e4(self):
        got = sieve_primes(10**4).primes.tolist()
        assert got == [n for n in range(2, 10**4 + 1) if is_prime(n)]

    def test_prime_count_at_1e6(self):
        # expected value recomputed by the independent bytearray sieve
        ref = reference_primes(10**6)
        assert len(ref) == 78498
        got = sieve_primes(10**6).primes
        assert len(got) == 78498
        assert got.tolist() == ref

    def test_budget_enforced(self):
        with pytest.raises(ResourceBudgetError):
            sieve_primes(10**9)

    def test_rejects_tiny_limit(self):
        with pytest.raises(ValueError):
            sieve_primes(1)


class TestIsPrime:
    def test_agrees_with_sieve_to_1e6(self):
        primes = set(sieve_primes(10**6).primes.tolist())
        assert all(is_prime(n) == (n in primes) for n in range(-3, 10**6 + 1))

    @pytest.mark.parametrize("n", [561, 2047, 3215031751])
    def test_rejects_pseudoprimes(self, n):
        # a Carmichael number and the smallest strong pseudoprimes to base 2
        # and to bases 2, 3, 5, 7
        assert not is_prime(n)

    def test_three_bases_end_at_their_first_pseudoprime(self):
        # 4759123141 = 48781 * 97561 passes the strong test to each of 2, 7
        # and 61, so it must take the 13 bases
        n = 4759123141
        assert n == 48781 * 97561
        assert all(strong_probable_prime(n, b) for b in (2, 7, 61))
        assert not is_prime(n)
        assert is_prime(4294967291)  # the largest prime below 2^32, on three bases

    def test_three_bases_agree_with_thirteen(self, monkeypatch):
        rng = random.Random(5)
        ns = [rng.randrange(10**9, 4759123141) | 1 for _ in range(3000)]
        three = [is_prime(n) for n in ns]
        monkeypatch.setattr(expdens.primes, "_MR_SMALL_BELOW", 0)
        assert three == [is_prime(n) for n in ns]
        assert any(three)

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert is_prime(10**18 + 3)
        assert not is_prime(10**18 + 1)
        assert time.perf_counter() - start < 0.5

    def test_refuses_beyond_deterministic_range(self):
        assert not is_prime(3317044064679887385961979)
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)


def unsegmented(limit):
    """Every prime <= limit from one ``_odd_flags`` call over [1, limit]."""
    return [2] + list(compress(range(1, limit + 1, 2), _odd_flags(limit)))


def trial_division(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestOddFlags:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 5000), st.integers(0, 2600))
    def test_against_trial_division(self, limit, half):
        lo = 2 * half + 1  # odd, from 1 up to past the limit
        flags = _odd_flags(limit, lo)
        assert len(flags) == len(range(lo, limit + 1, 2))
        assert list(flags) == [trial_division(m) for m in range(lo, limit + 1, 2)]

    @pytest.mark.parametrize("limit", range(12))
    @pytest.mark.parametrize("lo", [1, 3, 5, 7, 9, 11, 13])
    def test_below_the_first_base_prime(self, limit, lo):
        # below 9 no odd prime strikes anything; lo > limit is empty
        assert list(_odd_flags(limit, lo)) == [
            trial_division(m) for m in range(lo, limit + 1, 2)
        ]

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 97])
    def test_windows_starting_below_p_squared(self, p):
        # each window starts at or below p^2, some below p itself: p must stay
        # unmarked, and its first struck multiple is p^2, not the first in the window
        limit = p * p + 4 * p
        odd = [trial_division(m) for m in range(1, limit + 1, 2)]
        for lo in range(1, p * p + 2, 2):
            flags = _odd_flags(limit, lo)
            assert list(flags) == odd[lo >> 1 :]
            assert not flags[(p * p - lo) >> 1]


class TestSegments:
    def test_segmented_matches_one_shot(self, monkeypatch):
        limit = 10**7 + 50_000  # three windows of the default SEGMENT_SIZE
        reference = sieve_primes(limit).primes
        monkeypatch.setattr(expdens.primes, "SEGMENT_SIZE", 1 << 20)
        segs = list(prime_segments(limit))
        assert len(segs) > 1
        joined = np.concatenate(segs)
        assert np.array_equal(joined, reference)
        # the reference is segmented too; the unsegmented sieve checks both
        assert np.array_equal(joined, unsegmented(limit))
        assert int(joined[-1]) <= limit

    def test_empty_below_two(self):
        assert list(prime_segments(1)) == []

    def test_one_block_up_to_the_segment_size(self):
        for limit in range(2, 3001):
            segs = list(prime_segments(limit))
            assert len(segs) == 1
            assert segs[0].tolist() == unsegmented(limit)
        assert unsegmented(3000) == reference_primes(3000)

    @pytest.mark.parametrize("size", [64, 63])
    def test_small_windows_tile_the_range(self, monkeypatch, size):
        monkeypatch.setattr(expdens.primes, "SEGMENT_SIZE", size)
        segs = [seg.tolist() for seg in prime_segments(10**5)]
        assert len(segs) > 1
        flat = [p for seg in segs for p in seg]
        assert flat == sorted(set(flat))  # ascending and disjoint
        assert flat == unsegmented(10**5)
        assert flat == reference_primes(10**5)


class TestSpf:
    def test_examples(self):
        table = spf_sieve(12)
        assert table.spf[12] == 2
        assert table.spf[9] == 3
        assert table.spf[11] == 11

    def test_spf_divides_and_is_minimal(self):
        table = spf_sieve(5000)
        for n in range(2, 5001):
            p = int(table.spf[n])
            assert n % p == 0
            assert is_prime(p)
            assert p == brute_factorize(n)[0][0]


class TestFactorize:
    def test_360(self):
        table = spf_sieve(400)
        assert factorize(360, table) == [(2, 3), (3, 2), (5, 1)]

    def test_prime(self):
        table = spf_sieve(100)
        assert factorize(97, table) == [(97, 1)]

    def test_prime_power(self):
        table = spf_sieve(1024)
        assert factorize(1024, table) == [(2, 10)]

    def test_reconstructs_everything_to_1e4(self):
        table = spf_sieve(10**4)
        for n in range(2, 10**4 + 1):
            fac = factorize(n, table)
            assert all(e >= 1 for _, e in fac)
            assert [p for p, _ in fac] == sorted({p for p, _ in fac})
            prod = 1
            for p, e in fac:
                prod *= p**e
            assert prod == n

    def test_out_of_range(self):
        table = spf_sieve(100)
        with pytest.raises(ValueError):
            factorize(101, table)
        with pytest.raises(ValueError):
            factorize(1, table)
