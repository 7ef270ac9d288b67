import time

import numpy as np
import pytest

import expdens.primes
from expdens.primes import (
    ResourceBudgetError,
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
        assert got.size == 78498
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

    def test_large_prime_is_fast(self):
        start = time.perf_counter()
        assert is_prime(10**18 + 3)
        assert not is_prime(10**18 + 1)
        assert time.perf_counter() - start < 0.5

    def test_refuses_beyond_deterministic_range(self):
        assert not is_prime(3317044064679887385961979)
        with pytest.raises(ValueError):
            is_prime(3317044064679887385961981)


class TestSegments:
    def test_segmented_matches_one_shot(self, monkeypatch):
        limit = 10**7 + 50_000  # above the one-shot threshold
        reference = sieve_primes(limit).primes
        monkeypatch.setattr(expdens.primes, "SEGMENT_SIZE", 1 << 20)
        segs = list(prime_segments(limit))
        assert len(segs) > 1
        joined = np.concatenate(segs)
        assert np.array_equal(joined, reference)
        assert int(joined[-1]) <= limit

    def test_empty_below_two(self):
        assert list(prime_segments(1)) == []


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
