"""Command-line surface: density, series, count, verify, examples.

Pattern sources are an inline DSL (--pattern "1..1,3..inf") or a JSON spec
file (--spec FILE) with the schema

    {"default": "<DSL>", "exceptions": {"<key>": "<DSL>"}}

where a key is a prime ("7"), "p<=q" for all primes up to q, or
"p in [2,3,5]"; prime-class keys are expanded to explicit primes at load
time, and the empty DSL string denotes the empty pattern.

Machine mode prints one JSON record per result whose keys mirror the result
dataclasses exactly; floats round-trip at full precision, and a record
holding NaN or an infinity is refused as a usage error.  Exit codes:
0 ok, 1 usage, 2 target error unreachable, 3 resource cap, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from . import empirical, euler, series
from .patterns import PatternSyntaxError, PrimeAwarePattern, load_spec, parse_pattern
from .primes import ResourceBudgetError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREACHABLE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY_FAILED = 4


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    subcommand: str
    pattern: str | None = None
    spec_path: str | None = None
    x: int | None = None
    target_error: float = euler.DEFAULT_TARGET_ERROR
    degree: int = 8
    truncation: int | None = None
    output: str = "human"
    tolerance: float = 2e-3
    weight: str = "pattern"

    def __post_init__(self):
        if self.output not in ("human", "machine"):
            raise UsageError(f"unknown output mode {self.output!r}")
        if self.weight not in ("pattern", "delta"):
            raise UsageError(f"unknown weight kind {self.weight!r}")
        for name in ("x", "target_error", "truncation", "tolerance"):
            v = getattr(self, name)
            # NaN fails every comparison, so test for the valid range.
            if v is not None and not 0 < v < math.inf:
                raise UsageError(f"{name} must be positive and finite")
        if self.degree < 0:
            raise UsageError("degree must be >= 0")


def _load_pattern(config: RunConfig) -> PrimeAwarePattern:
    if (config.pattern is None) == (config.spec_path is None):
        raise UsageError("give exactly one pattern source: --pattern or --spec")
    if config.pattern is not None:
        return PrimeAwarePattern(default=parse_pattern(config.pattern))
    return load_spec(config.spec_path)


def _emit(record, out) -> None:
    out.write(json.dumps(dataclasses.asdict(record), allow_nan=False) + "\n")


def _print_density(est: euler.DensityEstimate, label: str, out) -> None:
    out.write(
        f"{label}value={est.value!r}  bracket=[{est.lower!r}, {est.upper!r}]\n"
        f"{' ' * len(label)}truncation_prime={est.truncation_prime}  "
        f"tail_logbound={est.tail_logbound:.3e}  "
        f"diverges_to_zero={est.diverges_to_zero}\n"
    )


def _cmd_density(config: RunConfig, out) -> int:
    pap = _load_pattern(config)
    est = euler.density(
        pap, config.target_error, truncation_prime=config.truncation
    )
    if config.output == "machine":
        _emit(est, out)
    else:
        _print_density(est, "density  ", out)
    return EXIT_OK


def _cmd_series(config: RunConfig, out) -> int:
    if config.weight == "delta":
        if config.pattern is not None or config.spec_path is not None:
            raise UsageError("--weight delta takes no pattern source")
        w = series.ExponentWeight.excess()
    else:
        pap = _load_pattern(config)
        if pap.exceptions:
            raise UsageError("series weights are prime-independent; no exceptions allowed")
        w = series.ExponentWeight.outside_pattern(pap.default)
    truncation = config.truncation or series.DEFAULT_TRUNCATION
    ds = series.density_series(w, config.degree, truncation)
    if config.output == "machine":
        _emit(ds, out)
    else:
        out.write(f"series   truncation_prime={ds.truncation_prime}  "
                  f"mass_deficit={ds.mass_deficit!r}\n")
        for k, (c, lo, hi) in enumerate(zip(ds.coeffs, ds.lower, ds.upper)):
            out.write(f"  d_{k} = {c!r}   in [{lo!r}, {hi!r}]\n")
    return EXIT_OK


def _cmd_count(config: RunConfig, out) -> int:
    if config.x is None:
        raise UsageError("count needs --x")
    pap = _load_pattern(config)
    rep = empirical.count_pattern(config.x, pap)
    if config.output == "machine":
        _emit(rep, out)
    else:
        out.write(f"count    x={rep.x}  count={rep.count}  ratio={rep.ratio!r}\n")
    return EXIT_OK


def _cmd_verify(config: RunConfig, out) -> int:
    if config.x is None:
        raise UsageError("verify needs --x")
    pap = _load_pattern(config)
    est = euler.density(
        pap, config.target_error, truncation_prime=config.truncation
    )
    rep = empirical.count_pattern(config.x, pap)
    cmp_report = empirical.compare(est, rep, config.tolerance)
    if config.output == "machine":
        _emit(est, out)
        _emit(rep, out)
        _emit(cmp_report, out)
    else:
        _print_density(est, "product  ", out)
        out.write(f"sieve    x={rep.x}  count={rep.count}  ratio={rep.ratio!r}\n")
        verdict = "PASS" if cmp_report.passed else "FAIL"
        out.write(
            f"verify   deviation={cmp_report.deviation!r}  "
            f"tolerance={cmp_report.tolerance!r}  {verdict}\n"
        )
    return EXIT_OK if cmp_report.passed else EXIT_VERIFY_FAILED


_CATALOG_ROWS = [
    ("powerfree k=1", dict(form="powerfree", k=1)),
    ("powerfree k=2", dict(form="powerfree", k=2)),
    ("squarefree_or_high k=3", dict(form="squarefree_or_high", k=3)),
    ("skip_one k=2", dict(form="skip_one", k=2)),
    ("exp_odd", dict(form="exp_odd")),
    ("mod_periodic ell=2", dict(form="mod_periodic", ell=2)),
    ("mod_periodic ell=3", dict(form="mod_periodic", ell=3)),
    ("ex1 q=3 k=2", dict(form="ex1", q=3, k=2)),
    ("ex2 S={2} k=2", dict(form="ex2", primes={2}, k=2)),
    ("ex3_single p=2 k=2", dict(form="ex3_single", p=2, k=2)),
    ("ex3 k=2", dict(form="ex3", k=2)),
]


def _cmd_examples(config: RunConfig, out) -> int:
    for label, kwargs in _CATALOG_ROWS:
        est = euler.closed_form(target_error=config.target_error, **kwargs)
        if config.output == "machine":
            record = dataclasses.asdict(est)
            record["id"] = label
            out.write(json.dumps(record, allow_nan=False) + "\n")
        else:
            out.write(
                f"{label:<24} value={est.value:.12f}  "
                f"bracket=[{est.lower:.12f}, {est.upper:.12f}]\n"
            )
    return EXIT_OK


_DISPATCH = {
    "density": _cmd_density,
    "series": _cmd_series,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "examples": _cmd_examples,
}


def run(config: RunConfig, out=None) -> int:
    """Execute one configured invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        return _DISPATCH[config.subcommand](config, out)
    except (PatternSyntaxError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except euler.UnreachableTargetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="expdens", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("density", "series", "count", "verify", "examples"):
        p = sub.add_parser(name)
        p.add_argument("--pattern", help="inline pattern DSL, e.g. '1..1,3..inf'")
        p.add_argument("--spec", dest="spec_path", help="JSON pattern spec file")
        p.add_argument("--x", type=int, help="sieve bound for counting")
        p.add_argument("--error", dest="target_error", type=float,
                       default=euler.DEFAULT_TARGET_ERROR,
                       help="target bracket width for the product")
        p.add_argument("--degree", type=int, default=8, help="series degree K")
        p.add_argument("--truncation", type=int, help="override truncation prime")
        p.add_argument("--tol", dest="tolerance", type=float, default=2e-3,
                       help="verification tolerance")
        p.add_argument("--output", choices=("human", "machine"), default="human")
        if name == "series":
            p.add_argument("--weight", choices=("pattern", "delta"),
                           default="pattern",
                           help="binary weight from the pattern, or the excess weight")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        config = RunConfig(**vars(ns))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
