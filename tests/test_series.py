from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from helpers import table_weight
from hypothesis import given, settings

from expdens.euler import brackets_overlap, density, zeta_int
from expdens.patterns import ExponentInterval, PrimeAwarePattern, min_forbidden, parse_pattern
from expdens.series import (
    DivergentWeightError,
    ExponentWeight,
    density_series,
    local_polys,
)

SQUAREFREE_W = ExponentWeight.outside_pattern(parse_pattern("1..1"))


def local_row(p: int, w: ExponentWeight, K: int) -> list[float]:
    """The library's coefficients a_0..a_K of F(p; z) for one prime."""
    return local_polys(np.array([p]), w, K)[:, 0].tolist()


# weight(i) = values[i - 1], then a tail of slope 0 or 1 whose first weight is 0..3
small_weights = st.tuples(
    st.lists(st.integers(0, 4), max_size=4), st.sampled_from([0, 1]), st.integers(0, 3)
).map(lambda t: table_weight(t[0], t[1], t[2] - t[1] * (len(t[0]) + 1)))


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
            ExponentWeight(((ExponentInterval(1, None), 1, -2),))

    def test_uncovered_exceptions_rejected(self):
        with pytest.raises(ValueError):
            ExponentWeight(((ExponentInterval(2, 3), 0, 1), (ExponentInterval(4, None), 0, 0)))


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
        assert ds.coeffs[0] == pytest.approx(1.0 / zeta_int(2).value, abs=1e-4)
        assert ds.coeffs[1] > ds.coeffs[2] > 0.0

    def test_excess_k0_is_squarefree_density(self):
        ds = density_series(ExponentWeight.excess(), K=0, truncation_prime=10**5)
        assert ds.coeffs[0] == pytest.approx(1.0 / zeta_int(2).value, abs=1e-4)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            density_series(SQUAREFREE_W, K=-1)
        with pytest.raises(ValueError):
            density_series(SQUAREFREE_W, K=2, truncation_prime=1)
