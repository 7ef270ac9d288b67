from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from helpers import free_at_one_weights, inverse_zeta, small_weights
from hypothesis import assume, given, settings

from expdens.euler import _delta_quotients, brackets_overlap, density
from expdens.patterns import (
    ExponentPattern,
    PrimeAwarePattern,
    contains,
    min_forbidden,
    parse_pattern,
)
from expdens.primes import sieve_primes
from expdens.series import (
    DivergentWeightError,
    ExponentWeight,
    _row_exponents,
    _weight_ends,
    density_series,
)

SQUAREFREE_W = ExponentWeight.outside_pattern(parse_pattern("1..1"))


def local_row(p: int, w: ExponentWeight, K: int) -> list[float]:
    """The library's coefficients a_0..a_K of F(p; z) for one prime, each rounded once."""
    ((num,), (den,)), *rest = [_delta_quotients([p], e) for e in _row_exponents(w, K)]
    return [(den - num) / den, *(n / d for (n,), (d,) in rest)]


class TestExponentWeight:
    def test_squarefree_indicator_shape(self):
        w = SQUAREFREE_W
        assert [w.weight(i) for i in range(1, 6)] == [0, 1, 1, 1, 1]
        assert w.induced_pattern() == parse_pattern("1..1")

    def test_excess_shape(self):
        w = ExponentWeight.excess()
        assert [w.weight(i) for i in range(1, 6)] == [0, 1, 2, 3, 4]
        assert w.induced_pattern() == parse_pattern("1..1")

    def test_zero_weight(self):
        w = ExponentWeight.zero()
        assert all(w.weight(i) == 0 for i in range(1, 10))
        assert w.induced_pattern() == parse_pattern("1..inf")

    def test_threshold(self):
        w = ExponentWeight.threshold(3)
        assert [w.weight(i) for i in range(1, 6)] == [0, 0, 1, 1, 1]

    def test_outside_pattern_with_unbounded_tail(self):
        w = ExponentWeight.outside_pattern(parse_pattern("1..1,3..inf"))
        assert [w.weight(i) for i in range(1, 7)] == [0, 1, 0, 0, 0, 0]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ExponentWeight(((1, 1, -2),))

    def test_uncovered_exceptions_rejected(self):
        with pytest.raises(ValueError):
            ExponentWeight(((2, 0, 1), (4, 0, 0)))

    @given(small_weights, st.integers(0, 6))
    @settings(max_examples=200)
    def test_weight_ends_are_the_level_sets(self, w, K):
        # the ends of set k hold exactly the exponents of weight k
        for k, ends in enumerate(_weight_ends(w, K)):
            pattern = ExponentPattern(ends)
            for i in range(1, 41):
                assert contains(pattern, i) == (w.weight(i) == k)


class TestLocalPoly:
    def test_squarefree_indicator_at_two(self):
        row = local_row(2, SQUAREFREE_W, 1)
        assert row[0] == pytest.approx(0.75, abs=1e-15)
        assert row[1] == pytest.approx(0.25, abs=1e-15)
        assert sum(row) == pytest.approx(1.0, abs=1e-15)

    def test_excess_at_two(self):
        row = local_row(2, ExponentWeight.excess(), 2)
        assert row == pytest.approx([0.75, 0.125, 0.0625], abs=1e-15)
        # exponents >= 4 have weight > 2 and carry the rest of the mass
        assert 1.0 - sum(row) == pytest.approx(0.0625, abs=1e-15)

    def test_zero_weight_telescopes(self):
        for p in (2, 7, 101):
            row = local_row(p, ExponentWeight.zero(), 5)
            assert row[0] == pytest.approx(1.0, abs=1e-15)
            assert all(c == 0.0 for c in row[1:])

    @given(small_weights, st.sampled_from([2, 3, 5, 97]), st.integers(0, 12))
    @settings(max_examples=150)
    def test_unit_mass(self, w, p, K):
        row = local_row(p, w, K)
        # the row leaves out only the mass of weights above K
        assert -1e-12 <= 1.0 - sum(row) <= 1.0
        assert all(c >= 0.0 for c in row)


class TestDensitySeries:
    def test_squarefree_indicator_series(self):
        ds = density_series(SQUAREFREE_W, K=3, truncation_prime=10**5)
        assert ds.coeffs[0] == pytest.approx(float(inverse_zeta(2)), abs=1e-4)
        assert ds.coeffs[1] > ds.coeffs[2] > 0.0

    def test_excess_k0_is_squarefree_density(self):
        ds = density_series(ExponentWeight.excess(), K=0, truncation_prime=10**5)
        assert ds.coeffs[0] == pytest.approx(float(inverse_zeta(2)), abs=1e-4)

    def test_zero_weight_concentrates_at_zero(self):
        ds = density_series(ExponentWeight.zero(), K=4, truncation_prime=10**4)
        assert ds.coeffs[0] == pytest.approx(1.0, abs=1e-12)
        assert all(abs(c) < 1e-15 for c in ds.coeffs[1:])
        assert abs(ds.mass_deficit) < 1e-9

    def test_divergent_weight_rejected(self):
        with pytest.raises(DivergentWeightError):
            density_series(ExponentWeight.threshold(1), K=3)

    def test_mass_accounting(self):
        for w in (SQUAREFREE_W, ExponentWeight.excess()):
            ds = density_series(w, K=6, truncation_prime=2 * 10**4)
            assert ds.mass_deficit >= -1e-12
            assert sum(ds.coeffs) <= 1.0 + 1e-9
            assert all(c >= -1e-12 for c in ds.coeffs)

    def test_d0_matches_density_bracket(self):
        for w in (SQUAREFREE_W, ExponentWeight.excess()):
            pattern = w.induced_pattern()
            assert min_forbidden(pattern) not in (None, 1)
            est = density(PrimeAwarePattern(default=pattern), 1e-8)
            ds = density_series(w, K=4, truncation_prime=10**5)
            d0 = SimpleNamespace(lower=ds.lower[0], upper=ds.upper[0])
            assert brackets_overlap(est, d0)

    @given(free_at_one_weights, st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_exact_zeros_are_the_unreached_degrees(self, w, K):
        # d_k = 0 exactly when k is no sum of the weights of single exponents;
        # an exponent i > K + 6 weighs more than K
        assume(min_forbidden(w.induced_pattern()) is not None)
        sums = {0}
        for _ in range(K):
            sums |= {t for s in sums for i in range(1, K + 7) if (t := s + w.weight(i)) <= K}
        ds = density_series(w, K)
        for k in range(K + 1):
            if k in sums:
                assert ds.lower[k] > 0.0
            else:
                assert (ds.coeffs[k], ds.lower[k], ds.upper[k]) == (0.0, 0.0, 0.0)

    def test_a_row_past_the_quotient_cap_is_no_exact_zero(self):
        # weight 1 only at exponent 2000: row 1 holds only exponents past the
        # 1100 bits the head's quotients keep, yet d_1 and d_2 are positive
        w = ExponentWeight(((1, 0, 0), (2000, 0, 1), (2001, 0, 0)))
        ds = density_series(w, 2)
        for k in (1, 2):
            assert ds.lower[k] == 0.0 < ds.upper[k]

    @pytest.mark.parametrize("e", [1100, 1101, 2000])
    def test_a_weight_whose_quotients_are_all_cut_is_published_above_zero(self, e):
        # weight 1 only at exponent e: every head quotient of row 1 is cut to
        # 0, yet d_1 > 0 is published as [0, upper], never as [0, 0]
        w = ExponentWeight(((1, 0, 0), (e, 0, 1), (e + 1, 0, 0)))
        primes = sieve_primes(1000).primes.tolist()
        assert not any(_delta_quotients(primes, _row_exponents(w, 1)[1])[0])
        ds = density_series(w, 1)
        assert ds.lower[1] == 0.0 < ds.upper[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            density_series(SQUAREFREE_W, K=-1)
        with pytest.raises(ValueError):
            density_series(SQUAREFREE_W, K=2, truncation_prime=1)
