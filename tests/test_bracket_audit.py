"""Every published bracket holds a 40-digit value computed without expdens's product code."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdens.euler import MIN_TRUNCATION, closed_form, density
from expdens.patterns import PrimeAwarePattern, min_forbidden, normalize_intervals, parse_pattern
from expdens.series import ExponentWeight, density_series
from helpers import oracle_closed_form, oracle_density, oracle_series, primes_upto

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 97, 997]
LARGE_PRIMES = [int(p) for p in primes_upto(3000) if p > 1000][::25]


def _assert_holds(est, truth) -> None:
    assert mpmath.mpf(est.lower) <= truth <= mpmath.mpf(est.upper), (est, truth)


@st.composite
def default_patterns(draw):
    """Interval patterns that allow exponent 1 and forbid some m >= 2, m up to 90."""
    m = draw(st.one_of(st.integers(2, 6), st.integers(7, 90)))
    raw = [(1, m - 1)]
    for _ in range(draw(st.integers(0, 3))):
        lo = draw(st.integers(m + 1, m + 12))
        hi = draw(st.one_of(st.none(), st.integers(lo, lo + 6)))
        raw.append((lo, hi))
    pattern = normalize_intervals(raw)
    assert min_forbidden(pattern) == m
    return pattern


exception_patterns = st.one_of(
    st.just(normalize_intervals([])),
    st.tuples(st.integers(1, 5), st.one_of(st.none(), st.integers(0, 4))).map(
        lambda t: normalize_intervals([(t[0], None if t[1] is None else t[0] + t[1])])
    ),
)


@st.composite
def audited_requests(draw):
    default = draw(default_patterns())
    keys = draw(
        st.lists(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES), max_size=3, unique=True)
    )
    exceptions = {q: draw(exception_patterns) for q in keys}
    start = max([MIN_TRUNCATION - 1, *keys]) + 1
    truncation = draw(st.one_of(st.none(), st.integers(start, 10**5)))
    return PrimeAwarePattern(default=default, exceptions=exceptions), truncation


@settings(max_examples=60, deadline=None)
@given(audited_requests())
def test_density_bracket_holds_the_truth(request):
    pap, truncation = request
    est = density(pap, 1e-12, truncation_prime=truncation)
    _assert_holds(est, oracle_density(pap))


catalog_requests = st.one_of(
    st.builds(lambda k: ("powerfree", dict(k=k)), st.integers(1, 6)),
    st.builds(lambda k: ("squarefree_or_high", dict(k=k)), st.integers(2, 8)),
    st.builds(lambda k: ("skip_one", dict(k=k)), st.integers(2, 8)),
    st.just(("exp_odd", {})),
    st.builds(lambda ell: ("mod_periodic", dict(ell=ell)), st.integers(1, 9)),
    st.builds(
        lambda q, k: ("ex1", dict(q=q, k=k)), st.sampled_from(SMALL_PRIMES), st.integers(2, 5)
    ),
    st.builds(
        lambda s, k: ("ex2", dict(primes=set(s), k=k)),
        st.lists(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES), min_size=1, max_size=4),
        st.integers(2, 5),
    ),
    st.builds(
        lambda p, k: ("ex3_single", dict(p=p, k=k)),
        st.sampled_from(SMALL_PRIMES + LARGE_PRIMES),
        st.integers(2, 5),
    ),
    st.builds(lambda k: ("ex3", dict(k=k)), st.integers(2, 12)),
)


@settings(max_examples=60, deadline=None)
@given(catalog_requests)
def test_closed_form_bracket_holds_the_truth(request):
    form, kwargs = request
    est = closed_form(form, target_error=1e-12, **kwargs)
    assert est.width <= 1e-12
    _assert_holds(est, oracle_closed_form(form, **kwargs))


series_weights = st.one_of(
    st.just(ExponentWeight.excess()),
    st.builds(ExponentWeight.threshold, st.integers(2, 8)),
    default_patterns().map(ExponentWeight.outside_pattern),
)


@settings(max_examples=40, deadline=None)
@given(
    series_weights,
    st.integers(0, 16),
    st.one_of(st.sampled_from([2, 3, 1000]), st.integers(2, 10**5)),
)
def test_series_brackets_hold_the_truth(w, K, truncation):
    ds = density_series(w, K, truncation)
    for k, truth in enumerate(oracle_series(w, K)):
        assert mpmath.mpf(ds.lower[k]) <= truth <= mpmath.mpf(ds.upper[k]), (k, ds, truth)


@pytest.mark.parametrize("P", [10**5, 10**6])
@pytest.mark.parametrize(
    "w",
    [
        ExponentWeight.excess(),
        ExponentWeight.outside_pattern(parse_pattern("1..1")),
        ExponentWeight.outside_pattern(parse_pattern("1..2")),
    ],
    ids=["excess", "1..1", "1..2"],
)
def test_series_brackets_are_narrow(w, P):
    ds = density_series(w, 16, P)
    assert max(hi - lo for lo, hi in zip(ds.lower, ds.upper)) <= 1e-13
