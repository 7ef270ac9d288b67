"""Every published bracket holds a 40-digit value computed without expdens's product code."""

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expdens.euler import MIN_TRUNCATION, closed_form, density
from expdens.patterns import (
    PrimeAwarePattern,
    min_forbidden,
    normalize_intervals,
    parse_pattern,
    parse_prime_aware,
)
from expdens.series import ExponentWeight, density_series
from helpers import (
    oracle_closed_form,
    oracle_density,
    oracle_series,
    primes_upto,
    table_weight,
)

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
    # a run that ends far out: every term past p^e >= 2^1100 is dropped
    st.tuples(st.integers(1, 3), st.integers(10**3, 10**30)).map(
        lambda t: normalize_intervals([(1, t[0]), (t[0] + 2, t[1])])
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
    st.builds(lambda ell: ("mod_periodic", dict(ell=ell)), st.integers(1, 11)),
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


@pytest.mark.parametrize("default", ["1..1", "1..2,5..inf"])
@pytest.mark.parametrize("exception", ["", "2..3"])
def test_range_of_exceptional_primes_holds_the_truth(default, exception):
    # 303 exceptional primes p <= 2000, none allowing exponent 1, as chunk members
    pap = parse_prime_aware({"default": default, "exceptions": {"p<=2000": exception}})
    assert len(pap.exceptions) == 303
    est = density(pap, 1e-12)
    _assert_holds(est, oracle_density(pap))


@pytest.mark.parametrize("ell", [150, 2003])
def test_mod_periodic_far_period_holds_the_truth(ell):
    # p^-(ell+1) is dropped where p^(ell+1) >= 2^1100: at ell = 150 from
    # p = 257 on, at ell = 2003 for every prime
    est = closed_form("mod_periodic", ell=ell, target_error=1e-12)
    _assert_holds(est, oracle_closed_form("mod_periodic", ell=ell))


@st.composite
def far_patterns(draw):
    """Patterns as above whose last interval starts between 10^3 and 10^30."""
    near = [(iv.lo, iv.hi) for iv in draw(default_patterns()).intervals if iv.hi is not None]
    lo = draw(st.integers(10**3, 10**30))
    hi = draw(st.one_of(st.none(), st.integers(lo, lo + 10**6)))
    return normalize_intervals([*near, (lo, hi)])


# weight 0 at exponent 1, up to six more listed weights, then a tail of slope
# 0 or 1 whose first weight is 0..4.  The zero weight is left out: its series
# is exactly 1, which the oracle's rounded factors miss by about 4e-50.
table_weights = (
    st.tuples(st.lists(st.integers(0, 6), max_size=6), st.sampled_from([0, 1]), st.integers(0, 4))
    .map(lambda t: table_weight([0, *t[0]], t[1], t[2] - t[1] * (len(t[0]) + 2)))
    .filter(lambda w: min_forbidden(w.induced_pattern()) is not None)
)

series_weights = st.one_of(
    st.just(ExponentWeight.excess()),
    st.builds(ExponentWeight.threshold, st.integers(2, 8)),
    default_patterns().map(ExponentWeight.outside_pattern),
    far_patterns().map(ExponentWeight.outside_pattern),
    table_weights,
)


@settings(max_examples=60, deadline=None)
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
