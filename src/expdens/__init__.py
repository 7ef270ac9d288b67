"""expdens: natural densities of integers with constrained prime exponents."""

from .empirical import (
    ComparisonReport,
    CountReport,
    GHistogram,
    compare,
    count_pattern,
    count_periodic,
    g_histogram,
)
from .euler import (
    BoundedValue,
    DensityEstimate,
    LocalFactor,
    UnreachableTargetError,
    brackets_overlap,
    closed_form,
    density,
    local_factor_interval,
    prime_sum,
    zeta_int,
)
from .patterns import (
    ExponentInterval,
    ExponentPattern,
    PatternSyntaxError,
    PrimeAwarePattern,
    complement,
    contains,
    load_spec,
    min_forbidden,
    normalize_intervals,
    parse_pattern,
    parse_prime_aware,
    pattern_for_prime,
)
from .primes import (
    PrimeTable,
    ResourceBudgetError,
    is_prime,
    sieve_primes,
)
from .series import (
    DensitySeries,
    DivergentWeightError,
    ExponentWeight,
    density_series,
)

__version__ = "0.1.0"
