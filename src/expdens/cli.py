"""Command-line surface: density, series, count, verify, examples.

Pattern sources are an inline DSL (--pattern "1..1,3..inf") or a JSON spec
file (--spec FILE) with the schema

    {"default": "<DSL>", "exceptions": {"<key>": "<DSL>"}}

where a key is a prime ("7"), "p<=q" for all primes up to q, or
"p in [2,3,5]"; a "p in" key is expanded to explicit primes at load time,
a "p<=q" key is sieved as it is read, and the empty DSL string denotes the
empty pattern.

A subcommand returns its exit code and its result records, each with a
callable for its human text; ``run()`` alone picks the output and writes
it, once.  Machine mode prints one JSON record per result whose keys are the
result record's fields, in order; floats round-trip at full precision, and a
record holding NaN or an infinity is refused as a usage error.  Exit codes:
0 ok, 1 usage, 2 target error unreachable, 3 resource cap, 4 verification
failure; on 1 to 3 nothing is written.

The result records are plain classes made by expdens._record, not
dataclasses, so no request loads dataclasses or inspect, nor fractions;
json loads only for machine output.
"""

from __future__ import annotations

import math
import re
import sys

from . import euler  # empirical and series load in the subcommands that use them
from ._record import record
from .patterns import PatternSyntaxError, PrimeAwarePattern, load_spec, parse_pattern
from .primes import ResourceBudgetError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNREACHABLE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY_FAILED = 4


class UsageError(ValueError):
    pass


@record
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


def _fields(result) -> dict:
    """A result record's fields by name, in field order."""
    return {name: getattr(result, name) for name in result.__match_args__}


def _density_text(est: euler.DensityEstimate, label: str) -> str:
    return (
        f"{label}value={est.value!r}  bracket=[{est.lower!r}, {est.upper!r}]\n"
        f"{' ' * len(label)}truncation_prime={est.truncation_prime}  "
        f"tail_logbound={est.tail_logbound:.3e}  "
        f"diverges_to_zero={est.diverges_to_zero}\n"
    )


def _cmd_density(config: RunConfig) -> tuple[int, list]:
    est = euler.density(_load_pattern(config), config.target_error,
                        truncation_prime=config.truncation)
    return EXIT_OK, [(est, lambda: _density_text(est, "density  "))]


def _cmd_series(config: RunConfig) -> tuple[int, list]:
    from . import series

    if config.weight == "delta":
        if config.pattern is not None or config.spec_path is not None:
            raise UsageError("--weight delta takes no pattern source")
        w = series.ExponentWeight.excess()
    else:
        pap = _load_pattern(config)
        if pap.exceptions:
            raise UsageError("series weights are prime-independent; no exceptions allowed")
        w = series.ExponentWeight.outside_pattern(pap.default)
    ds = series.density_series(w, config.degree, config.truncation or series.DEFAULT_TRUNCATION)
    return EXIT_OK, [(ds, lambda: (
        f"series   truncation_prime={ds.truncation_prime}  mass_deficit={ds.mass_deficit!r}\n"
        + "".join(f"  d_{k} = {c!r}   in [{lo!r}, {hi!r}]\n"
                  for k, (c, lo, hi) in enumerate(zip(ds.coeffs, ds.lower, ds.upper)))
    ))]


def _cmd_count(config: RunConfig) -> tuple[int, list]:
    from . import empirical

    if config.x is None:
        raise UsageError("count needs --x")
    rep = empirical.count_pattern(config.x, _load_pattern(config))
    return EXIT_OK, [(rep, lambda: f"count    x={rep.x}  count={rep.count}  ratio={rep.ratio!r}\n")]


def _cmd_verify(config: RunConfig) -> tuple[int, list]:
    from . import empirical

    if config.x is None:
        raise UsageError("verify needs --x")
    pap = _load_pattern(config)
    est = euler.density(pap, config.target_error, truncation_prime=config.truncation)
    rep = empirical.count_pattern(config.x, pap)
    check = empirical.compare(est, rep, config.tolerance)
    return EXIT_OK if check.passed else EXIT_VERIFY_FAILED, [
        (est, lambda: _density_text(est, "product  ")),
        (rep, lambda: f"sieve    x={rep.x}  count={rep.count}  ratio={rep.ratio!r}\n"),
        (check, lambda: f"verify   deviation={check.deviation!r}  tolerance={check.tolerance!r}"
                        f"  {'PASS' if check.passed else 'FAIL'}\n"),
    ]


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


def _cmd_examples(config: RunConfig) -> tuple[int, list]:
    def row(label: str, kwargs: dict):
        est = euler.closed_form(target_error=config.target_error, **kwargs)
        return {**_fields(est), "id": label}, lambda: (
            f"{label:<24} value={est.value:.12f}  bracket=[{est.lower:.12f}, {est.upper:.12f}]\n"
        )
    return EXIT_OK, [row(label, kwargs) for label, kwargs in _CATALOG_ROWS]


_DISPATCH = {
    "density": _cmd_density,
    "series": _cmd_series,
    "count": _cmd_count,
    "verify": _cmd_verify,
    "examples": _cmd_examples,
}


def run(config: RunConfig, out=None) -> int:
    """Execute one configured invocation; returns the process exit code.

    The command's records go to ``out`` in one write, as JSON lines or as
    their human text, which is formatted only in human mode.
    """
    out = out if out is not None else sys.stdout
    try:
        code, records = _DISPATCH[config.subcommand](config)
        if config.output == "machine":
            import json  # only machine output needs it

            lines = [json.dumps(r if isinstance(r, dict) else _fields(r), allow_nan=False) + "\n"
                     for r, _ in records]
        else:
            lines = [text() for _, text in records]
        out.write("".join(lines))
        return code
    except (PatternSyntaxError, ValueError, OSError) as exc:
        return _report(exc, EXIT_USAGE)
    except euler.UnreachableTargetError as exc:
        return _report(exc, EXIT_UNREACHABLE)
    except ResourceBudgetError as exc:
        return _report(exc, EXIT_RESOURCE)


def _report(exc: Exception, code: int) -> int:
    """Write ``exc`` to stderr, each number over 40 digits cut to 20; return ``code``."""
    message = re.sub(r"\d{41,}", lambda m: f"{m[0][:20]}... ({len(m[0])} digits)", str(exc))
    print(f"error: {message}", file=sys.stderr)
    return code


# Each flag's RunConfig field and converter; only series takes --weight.
_FLAGS = {
    "--pattern": ("pattern", str), "--spec": ("spec_path", str),
    "--x": ("x", int), "--error": ("target_error", float),
    "--degree": ("degree", int), "--truncation": ("truncation", int),
    "--tol": ("tolerance", float), "--output": ("output", str),
    "--weight": ("weight", str),
}
_USAGE = """usage: expdens {density,series,count,verify,examples} [--pattern DSL | --spec FILE]
  [--x N] [--error WIDTH] [--degree K] [--truncation P] [--tol T] [--output human|machine]
  [--weight pattern|delta (series only)]; a flag takes its value as --flag VALUE or
  --flag=VALUE and may be shortened to a unique prefix; -h or --help prints this text\n"""


def _is_value(arg: str) -> bool:
    # no leading "-", unless "-" alone, spaced or a negative number (-1, -.5)
    negative = arg[1:].replace(".", "", 1).isdecimal() and arg[-1] != "."
    return not arg.startswith("-") or arg == "-" or " " in arg or negative


def _parse(argv: list[str], known=_FLAGS) -> RunConfig | None:
    """The RunConfig of ``argv``, or None where -h or --help asks for usage.

    Only the flags in ``known`` are read, and a prefix need only be unique
    among them.
    """
    args = iter(argv)
    subcommand, given = next(args, ""), {}
    flags = [f for f in known if f != "--weight" or subcommand == "series"]
    for arg in args if subcommand in _DISPATCH else [subcommand]:
        if arg == "-h" or len(arg) > 2 and "--help".startswith(arg):
            return None
        if subcommand not in _DISPATCH:
            raise UsageError(f"the first argument must be one of: {', '.join(_DISPATCH)}")
        name, eq, value = arg.partition("=")
        # no flag is a prefix of another, so a whole name matches only itself
        matches = [f for f in flags if f.startswith(name) and len(name) > 2]
        if len(matches) != 1:
            raise UsageError(f"{'ambiguous' if matches else 'unrecognized'} argument {arg!r}")
        flag = matches[0]
        if not eq:
            value = next(args, None)
            if value is None or not _is_value(value):
                raise UsageError(f"{flag} expects a value")
        field, convert = _FLAGS[flag]
        try:
            given[field] = convert(value)
        except ValueError:
            raise UsageError(f"{flag}: invalid value {value!r}") from None
    return RunConfig(subcommand, **given)


def main(argv: list[str] | None = None) -> int:
    try:
        config = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        return _report(exc, EXIT_USAGE)
    if config is None:
        sys.stdout.write(_USAGE)
        return EXIT_OK
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
