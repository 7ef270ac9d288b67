"""expdens: natural densities of integers with constrained prime exponents.

The names below are re-exported lazily (PEP 562): each submodule is
imported on first access to one of its names, so ``import expdens`` itself
loads none of them.  Every module is pure Python.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "empirical": (
        "ComparisonReport",
        "CountReport",
        "GHistogram",
        "compare",
        "count_pattern",
        "count_periodic",
        "g_histogram",
    ),
    "euler": (
        "BoundedValue",
        "DensityEstimate",
        "LocalFactor",
        "UnreachableTargetError",
        "brackets_overlap",
        "closed_form",
        "density",
        "local_factor_interval",
        "prime_sum",
        "zeta_int",
    ),
    "patterns": (
        "ExponentPattern",
        "PatternSyntaxError",
        "PrimeAwarePattern",
        "complement",
        "contains",
        "load_spec",
        "min_forbidden",
        "normalize_intervals",
        "parse_pattern",
        "parse_prime_aware",
        "pattern_for_prime",
    ),
    "primes": ("PrimeTable", "ResourceBudgetError", "is_prime", "sieve_primes"),
    "series": ("DensitySeries", "DivergentWeightError", "ExponentWeight", "density_series"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SOURCE})
